package server

import (
	"encoding/json"
	"math/big"
	"reflect"
	"testing"

	"qrel/internal/core"
	"qrel/internal/logic"
	"qrel/internal/mc"
)

// wireRequest is a lane-range sub-request carrying a resume frame —
// the richest request shape a coordinator sends.
func wireRequest(t *testing.T) Request {
	t.Helper()
	req := Request{
		DB: "g", Query: "exists x . S(x)", Engine: "monte-carlo-direct", Eval: "compiled",
		Eps: 0.1, Delta: 0.05, Seed: 7, Workers: 2, TimeoutMS: 1500,
		MaxSamples: 5000, MaxBDDNodes: 64, MaxWorlds: 1 << 10,
		IdempotencyKey: "job-1", Resume: []byte{0x01, 0x02, 0xfe},
	}
	// Lanes is set from its JSON form so the test pins the bytes on the
	// wire, whatever Go type carries the range.
	if err := json.Unmarshal([]byte(`{"lo":2,"hi":5,"total":8}`), &req.Lanes); err != nil {
		t.Fatal(err)
	}
	return req
}

// wireResponse renders a degraded, resumed lane-range result through
// toResponse and adds the coordinator-side fields.
func wireResponse() *Response {
	res := core.Result{
		H: big.NewRat(1, 4), R: big.NewRat(3, 4), HFloat: 0.25, RFloat: 0.75,
		Engine: "monte-carlo-direct", Guarantee: core.AbsoluteError,
		Eps: 0.125, Delta: 0.05, Samples: 640, Class: logic.ClassExistential,
		EvalMode: "compiled", Degraded: true, Seed: 7, Resumed: true,
		FallbackTrail: []core.FallbackStep{
			{Engine: "lineage-bdd", Err: "budget exceeded"},
			{Engine: "vm", Err: "shape does not compile"},
		},
		LaneRange: &core.LaneRangeResult{
			Range:  mc.Range{Lo: 2, Hi: 5, Total: 8},
			Method: "hoeffding/block64", Requested: 1200, NormF: 4,
			Lanes: []mc.LaneAgg{
				{Idx: 2, Quota: 150, Drawn: 150, Hits: 3, Sum: 12.5},
				{Idx: 3, Quota: 150, Drawn: 64, Hits: 1, Sum: 0.25},
				{Idx: 4, Quota: 150, Drawn: 0},
			},
		},
	}
	out := toResponse(res, 42)
	out.ClusterTrail = []ClusterStep{
		{Replica: "http://a", Lo: 2, Hi: 5, Event: "assign"},
		{Replica: "http://b", Lo: 2, Hi: 5, Event: "resume", Source: "http://a", Seq: 576},
		{Replica: "http://b", Lo: 2, Hi: 5, Event: "attest", Digest: "d1"},
		{Replica: "http://a", Event: "proxy", Err: "connection refused"},
	}
	out.Checkpoint = []byte{0xca, 0xfe}
	out.CheckpointSeq = 640
	return out
}

const (
	wantRequestJSON = `{"db":"g","query":"exists x . S(x)","engine":"monte-carlo-direct","eval":"compiled","eps":0.1,"delta":0.05,"seed":7,"workers":2,"timeout_ms":1500,"max_samples":5000,"max_bdd_nodes":64,"max_worlds":1024,"idempotency_key":"job-1","lanes":{"lo":2,"hi":5,"total":8},"resume":"AQL+"}`

	wantResponseJSON = `{"r":0.75,"h":0.25,"r_exact":"3/4","h_exact":"1/4","engine":"monte-carlo-direct","guarantee":"absolute(eps,delta)","eps":0.125,"delta":0.05,"samples":640,"class":"existential","eval_mode":"compiled","degraded":true,"fallback_trail":[{"engine":"lineage-bdd","err":"budget exceeded"},{"engine":"vm","err":"shape does not compile"}],"seed":7,"resumed":true,"lane_range":{"lo":2,"hi":5,"total":8,"method":"hoeffding/block64","requested":1200,"norm_f":4,"lanes":[{"idx":2,"quota":150,"drawn":150,"hits":3,"sum":12.5},{"idx":3,"quota":150,"drawn":64,"hits":1,"sum":0.25},{"idx":4,"quota":150,"drawn":0,"hits":0,"sum":0}]},"lane_digest":"aca5b03aa3bda34b3fb6c9a2a65f1139cee9dcc4000881c73847b9fb17b5ac56","cluster_trail":[{"replica":"http://a","lo":2,"hi":5,"event":"assign"},{"replica":"http://b","lo":2,"hi":5,"event":"resume","source":"http://a","seq":576},{"replica":"http://b","lo":2,"hi":5,"event":"attest","digest":"d1"},{"replica":"http://a","event":"proxy","err":"connection refused"}],"checkpoint":"yv4=","checkpoint_seq":640,"elapsed_ms":42}`
)

// TestWireFormat pins the exact JSON bytes of the records qreld puts
// on the wire and in its job journal. Clients, the coordinator and
// journals written by older builds all read these bytes, so a
// refactor of the Go types behind them must leave them unchanged.
func TestWireFormat(t *testing.T) {
	req := wireRequest(t)
	resp := wireResponse()
	cases := []struct {
		name string
		v    any
		want string
	}{
		{"request", req, wantRequestJSON},
		{"response", resp, wantResponseJSON},
		{"job-status", JobStatus{ID: "0123456789abcdef", State: "done", Request: &req, Result: resp, Resumes: 1, CreatedMS: 1000, UpdatedMS: 2000},
			`{"id":"0123456789abcdef","state":"done","request":` + wantRequestJSON + `,"result":` + wantResponseJSON + `,"resumes":1,"created_unix_ms":1000,"updated_unix_ms":2000}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := json.Marshal(tc.v)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != tc.want {
				t.Errorf("wire bytes changed:\n got %s\nwant %s", got, tc.want)
			}
			// Decoding the bytes and encoding again must reproduce them:
			// what a reader of the wire sees is what the writer meant.
			back := reflect.New(reflect.TypeOf(tc.v))
			if err := json.Unmarshal([]byte(tc.want), back.Interface()); err != nil {
				t.Fatal(err)
			}
			if again, _ := json.Marshal(back.Elem().Interface()); string(again) != tc.want {
				t.Errorf("decode/encode round trip changed the bytes:\n got %s\nwant %s", again, tc.want)
			}
		})
	}
}
