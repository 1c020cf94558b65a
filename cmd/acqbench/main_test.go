package main

import (
	"slices"
	"strings"
	"testing"
)

func TestExpandSelection(t *testing.T) {
	quality := []string{"table3", "fig7", "fig8", "fig9", "fig11", "table4", "table5-6", "fig12", "table7"}
	perf := []string{"fig13", "fig14a-d", "fig14e-h", "fig14i-l", "fig14m-p", "fig14q-t",
		"fig15", "fig16", "fig17a-d", "fig17e-h", "ext-truss", "ext-influence", "ablations"}
	for _, tc := range []struct {
		arg     string
		want    []string // nil: the argument must be rejected
		badTerm string   // the token the error must name
	}{
		{arg: "all", want: append(slices.Clone(quality), perf...)},
		{arg: "quality", want: quality},
		{arg: "perf", want: perf},
		{arg: " fig15 ,table3,,", want: []string{"fig15", "table3"}},
		{arg: "fig13,cold-start", badTerm: "cold-start"},
		{arg: "fig14e-j", badTerm: "fig14e-j"},
	} {
		got, err := expandSelection(tc.arg)
		if tc.want == nil {
			if err == nil {
				t.Errorf("%q: accepted as %v, want an error", tc.arg, got)
				continue
			}
			msg := err.Error()
			if !strings.Contains(msg, `"`+tc.badTerm+`"`) || !strings.Contains(msg, "fig17e-h") {
				t.Errorf("%q: error %q should name %q and list the valid IDs", tc.arg, msg, tc.badTerm)
			}
			continue
		}
		if err != nil {
			t.Errorf("%q: %v", tc.arg, err)
			continue
		}
		var ids []string
		for id := range got {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		want := slices.Sorted(slices.Values(tc.want))
		if !slices.Equal(ids, want) {
			t.Errorf("%q: expands to %v, want %v", tc.arg, ids, want)
		}
	}
}
