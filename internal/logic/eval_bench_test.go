package logic

import "testing"

// BenchmarkPreparedHoldsSentence is the per-world shape of the Monte
// Carlo interpreted hot path: a closed quantified sentence prepared
// once and evaluated once per sampled world. It allocates nothing.
func BenchmarkPreparedHoldsSentence(b *testing.B) {
	s := pathGraph(8)
	p := Prepare(MustParse("forall x . exists y . E(x,y) | S(x)", s.Voc))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Holds(s, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPreparedTruths is the per-world shape of an answer-tuple
// query: ψ(ā) for every ā ∈ A^k on one structure, the relation table
// bound once for the whole walk.
func BenchmarkPreparedTruths(b *testing.B) {
	s := pathGraph(8)
	p := Prepare(MustParse("exists y . E(x,y) | S(x)", s.Voc))
	hits := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.Truths(s, func(_ int, v bool) {
			if v {
				hits++
			}
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvalSentence is the one-shot wrapper: Prepare, then run.
func BenchmarkEvalSentence(b *testing.B) {
	s := pathGraph(8)
	f := MustParse("forall x . exists y . E(x,y) | S(x)", s.Voc)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EvalSentence(s, f); err != nil {
			b.Fatal(err)
		}
	}
}
