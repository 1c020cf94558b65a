// Fixtures for the viewpurity analyzer: downcasts from graph.View to the
// mutable forms and mutating calls are rejected outside the master-owning
// packages (the module root and internal/graph — see the root package
// fixture for the whitelisted side).
package viewpurity

import "fixture.example/internal/graph"

// --- Violations.

func downcast(v graph.View) *graph.Graph {
	g, _ := v.(*graph.Graph) // want "type assertion from graph.View to mutable *graph.Graph"
	return g
}

func downcastOverlay(v graph.View) *graph.Overlay {
	return v.(*graph.Overlay) // want "type assertion from graph.View to mutable *graph.Overlay"
}

func sniff(v graph.View) int {
	switch x := v.(type) {
	case *graph.Graph: // want "type assertion from graph.View to mutable *graph.Graph"
		return x.NumVertices()
	default:
		return 0
	}
}

func mutateMaster(g *graph.Graph) {
	g.InsertEdge(1, 2)      // want "mutating graph.Graph method InsertEdge"
	g.RemoveKeyword(1, "w") // want "mutating graph.Graph method RemoveKeyword"
}

func downcastWriterMaster(v graph.View) *graph.Master {
	return v.(*graph.Master) // want "type assertion from graph.View to mutable *graph.Master"
}

func downcastMutable(v graph.View) bool {
	_, ok := v.(graph.Mutable) // want "type assertion from graph.View to mutable graph.Mutable"
	return ok
}

func sniffWriter(v graph.View) int {
	switch v.(type) {
	case graph.Mutable: // want "type assertion from graph.View to mutable graph.Mutable"
		return 1
	case *graph.Master: // want "type assertion from graph.View to mutable *graph.Master"
		return 2
	default:
		return 0
	}
}

func mutateWriterMaster(m *graph.Master) {
	m.AddKeyword(1, "w") // want "mutating graph.Master method AddKeyword"
	m.RemoveEdge(1, 2)   // want "mutating graph.Master method RemoveEdge"
}

// --- Suppressed: a maintainer's documented precondition check.

func bindMaintainer(v graph.View) *graph.Graph {
	//acqvet:allow viewpurity — maintainers must bind to the mutable master
	g, ok := v.(*graph.Graph)
	if !ok {
		panic("maintainer requires the mutable master")
	}
	return g
}

// --- Clean.

// maintain is handed write access by static type, as the incremental
// maintainers are: calls through graph.Mutable are not reported.
func maintain(g graph.Mutable) bool {
	return g.InsertEdge(1, 2) && g.AddKeyword(2, "w")
}

// readOnly uses the View surface alone; nothing to report.
func readOnly(v graph.View, q graph.VertexID) int {
	total := 0
	for _, u := range v.Neighbors(q) {
		total += v.Degree(u)
	}
	return total
}

// frozenSniff type-switches a View to a read-only concrete form (here the
// interface itself); only the mutable forms are rejected.
func frozenSniff(v graph.View) bool {
	_, isView := v.(interface{ NumVertices() int })
	return isView
}
