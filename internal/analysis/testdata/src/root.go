// Package fixturemod sits at the fixture module's root — the analogue of
// the repository's acq package, which owns publication. The viewpurity
// whitelist entitles this package to downcast views and call mutators, so
// none of the calls below may be reported.
package fixturemod

import "fixture.example/internal/graph"

// Publish is the sanctioned master-holding path: root packages may downcast
// and mutate.
func Publish(v graph.View) {
	if g, ok := v.(*graph.Graph); ok {
		g.InsertEdge(1, 2)
		g.AddKeyword(1, "w")
	}
	if m, ok := v.(*graph.Master); ok {
		m.RemoveEdge(1, 2)
	}
	if w, ok := v.(graph.Mutable); ok {
		w.RemoveKeyword(1, "w")
	}
}
