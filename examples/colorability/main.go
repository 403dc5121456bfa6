// Colorability: Lemma 5.9 live. The absolute reliability of the fixed
// existential query "two adjacent nodes share a colour" on the
// reduction database decides graph 4-colourability — this example runs
// the reduction on a few graphs, compares against a backtracking
// solver, and decodes the witness world into an explicit colouring.
//
//	go run ./examples/colorability
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"qrel/internal/core"
	"qrel/internal/reductions"
)

func main() {
	graphs := []struct {
		name string
		g    *reductions.Graph
	}{
		{"cycle C5", cycle(5)},
		{"complete K4", complete(4)},
		{"complete K5", complete(5)},
		{"random G(5, .5)", random(5, 0.5)},
	}
	fmt.Println("Lemma 5.9: D ∉ AR_ψ  ⟺  G is 4-colourable")
	fmt.Printf("query: %s\n\n", reductions.FourColQuery)
	for _, item := range graphs {
		inst, err := reductions.BuildFourColInstance(item.g)
		if err != nil {
			log.Fatal(err)
		}
		res, err := core.AbsoluteReliability(context.Background(), inst.DB, inst.Query, core.Options{MaxEnumAtoms: 12})
		if err != nil {
			log.Fatal(err)
		}
		_, colorable := item.g.KColoring(4)
		fmt.Printf("%-16s %d vertices, %d edges\n", item.name, item.g.N, item.g.NumEdges())
		fmt.Printf("  solver: 4-colourable = %v; reduction: D ∈ AR = %v  => agree = %v\n",
			colorable, res.Reliable, colorable != res.Reliable)
		if res.Witness != nil {
			colors := reductions.ColoringFromWorld(res.Witness)
			fmt.Printf("  witness world decodes to colouring %v (proper: %v)\n",
				colors, item.g.IsProperColoring(colors))
		}
		fmt.Println()
	}
}

func cycle(n int) *reductions.Graph {
	g := reductions.NewGraph(n)
	for i := 0; i < n; i++ {
		g.MustAddEdge(i, (i+1)%n)
	}
	return g
}

func complete(n int) *reductions.Graph {
	g := reductions.NewGraph(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			g.MustAddEdge(u, v)
		}
	}
	return g
}

func random(n int, p float64) *reductions.Graph {
	g := reductions.RandomGraph(rand.New(rand.NewSource(11)), n, p)
	if g.NumEdges() == 0 {
		g.MustAddEdge(0, 1)
	}
	return g
}
