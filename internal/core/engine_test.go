package core

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"qrel/internal/logic"
)

// TestPlanRungs maps (class, u against MaxEnumAtoms, MaxWorlds) to the
// planned rungs without running an engine.
func TestPlanRungs(t *testing.T) {
	d := randUDB(rand.New(rand.NewSource(44)), 3, 4) // u = 4, 16 worlds
	queries := map[logic.Class]string{
		logic.ClassQuantifierFree: "S(x)",
		logic.ClassConjunctive:    "exists x y . E(x,y) & S(y)",
		logic.ClassExistential:    "exists x . S(x) | E(x,x)",
		logic.ClassUniversal:      "forall x . S(x)",
		logic.ClassFirstOrder:     "forall x . exists y . E(x,y)",
		logic.ClassSecondOrder:    "existsrel C/1 . exists x . C(x)",
	}
	const (
		qf, sp, we, bdd, kl, mcd = EngineQFree, EngineSafePlan, EngineWorldEnum, EngineLineageBDD, EngineLineageKL, EngineMCDirect
	)
	enumerable := Options{MaxEnumAtoms: 4, Budget: Budget{MaxWorlds: 16}}
	overAtoms := Options{MaxEnumAtoms: 3}
	overWorlds := Options{MaxEnumAtoms: 4, Budget: Budget{MaxWorlds: 15}}
	cases := []struct {
		cls  logic.Class
		opts Options
		want []Engine // nil: ErrInfeasible
	}{
		{logic.ClassQuantifierFree, enumerable, []Engine{qf, we, mcd}},
		{logic.ClassQuantifierFree, overAtoms, []Engine{qf, mcd}},
		{logic.ClassConjunctive, enumerable, []Engine{sp, we, bdd, kl, mcd}},
		{logic.ClassConjunctive, overWorlds, []Engine{sp, bdd, kl, mcd}},
		{logic.ClassExistential, enumerable, []Engine{we, bdd, kl, mcd}},
		{logic.ClassExistential, overAtoms, []Engine{bdd, kl, mcd}},
		{logic.ClassUniversal, enumerable, []Engine{we, bdd, kl, mcd}},
		{logic.ClassUniversal, overWorlds, []Engine{bdd, kl, mcd}},
		{logic.ClassFirstOrder, enumerable, []Engine{we, mcd}},
		{logic.ClassFirstOrder, overAtoms, []Engine{mcd}},
		{logic.ClassSecondOrder, enumerable, []Engine{we}},
		{logic.ClassSecondOrder, overAtoms, nil},
		{logic.ClassSecondOrder, overWorlds, nil},
	}
	for _, c := range cases {
		f := logic.MustParse(queries[c.cls], nil)
		if got := logic.Classify(f); got != c.cls {
			t.Fatalf("%q classifies as %v, want %v", queries[c.cls], got, c.cls)
		}
		got, err := plan(d, f, c.opts.withDefaults())
		if c.want == nil {
			if !errors.Is(err, ErrInfeasible) {
				t.Errorf("%v %+v: plan %v, %v; want ErrInfeasible", c.cls, c.opts, got, err)
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(got, c.want) {
			t.Errorf("%v %+v: plan %v, %v; want %v", c.cls, c.opts, got, err, c.want)
		}
	}
}

// TestEnginesTable pins the table order (the chaos panel replays it)
// and that every name in it is known.
func TestEnginesTable(t *testing.T) {
	want := []Engine{EngineQFree, EngineSafePlan, EngineWorldEnum, EngineLineageBDD, EngineLineageKL,
		EngineLineageKL53, EngineMonteCarlo, EngineMCDirect, EngineMCRare}
	if got := Engines(); !reflect.DeepEqual(got, want) {
		t.Errorf("Engines() = %v, want %v", got, want)
	}
	for _, e := range append(want, EngineAuto, "") {
		if !KnownEngine(e) {
			t.Errorf("KnownEngine(%q) = false", e)
		}
	}
	if KnownEngine("warp-drive") {
		t.Error("KnownEngine accepts an unknown name")
	}
}
