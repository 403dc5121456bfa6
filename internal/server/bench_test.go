package server

import (
	"bytes"
	"encoding/json"
	"math/big"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"qrel/internal/rel"
	"qrel/internal/unreliable"
)

// BenchmarkInlineRequest serves one quantifier-free request whose
// database comes inline as db_text: a 40-element graph with about 30 %
// of the edges and half of the labels observed, and an error
// probability on every fourth edge and every even label. Each request
// parses the text and builds the snapshot the engine reads from
// scratch, so this is the cost of a cold database end to end, JSON
// decode and encode included, without the network.
func BenchmarkInlineRequest(b *testing.B) {
	const n = 40
	rng := rand.New(rand.NewSource(20))
	voc := rel.MustVocabulary(rel.RelSym{Name: "E", Arity: 2}, rel.RelSym{Name: "S", Arity: 1})
	a := rel.MustStructure(n, voc)
	db := unreliable.New(a)
	frac := func() *big.Rat { return big.NewRat(int64(1+rng.Intn(4)), 10) }
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if rng.Float64() < 0.3 {
				a.MustAdd("E", i, j)
			}
			if (i*n+j)%4 == 0 {
				db.MustSetError(rel.GroundAtom{Rel: "E", Args: rel.Tuple{i, j}}, frac())
			}
		}
		if rng.Float64() < 0.5 {
			a.MustAdd("S", i)
		}
		if i%2 == 0 {
			db.MustSetError(rel.GroundAtom{Rel: "S", Args: rel.Tuple{i}}, frac())
		}
	}
	var text strings.Builder
	if err := unreliable.WriteDB(&text, db); err != nil {
		b.Fatal(err)
	}
	body, err := json.Marshal(Request{DBText: text.String(), Query: "E(x,y) & S(y) & !S(x)"})
	if err != nil {
		b.Fatal(err)
	}
	s := New(Config{Workers: 1})
	defer s.Close()
	h := s.Handler()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/reliability", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("HTTP %d: %s", rec.Code, rec.Body.String())
		}
	}
}
