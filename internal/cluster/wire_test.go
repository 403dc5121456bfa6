package cluster

import (
	"encoding/json"
	"testing"

	"qrel/internal/server"
)

// TestFanoutRecordWireFormat pins the exact JSON bytes of a fan-out
// journal record: a coordinator restarted on a newer build recovers
// the journals an older one wrote, so the Go types behind the record
// may change but its bytes may not.
func TestFanoutRecordWireFormat(t *testing.T) {
	rec := FanoutRecord{
		Key:     "fan-1",
		Request: server.Request{DB: "g", Query: "exists x . S(x)", Engine: "monte-carlo-direct", Eps: 0.1, Seed: 7, Workers: 8, IdempotencyKey: "fan-1"},
		State:   fanoutDone,
		Ranges: []RangeRecord{
			{Lo: 0, Hi: 4, Total: 8, SubKey: "fan-1/lanes-0-4-8", Replica: "http://a", Done: true, Digest: "d0"},
			{Lo: 4, Hi: 8, Total: 8, SubKey: "fan-1/lanes-4-8-8", Replica: "http://b", Checkpoint: []byte{0xca, 0xfe}, CheckpointSeq: 512, CheckpointFrom: "http://c", Done: true, Digest: "d1"},
		},
		Result: &server.Response{
			R: 0.75, H: 0.25, Engine: "monte-carlo-direct", Guarantee: "absolute(eps,delta)",
			Eps: 0.1, Delta: 0.05, Samples: 1200, Class: "existential", Seed: 7, Resumed: true,
			ClusterTrail: []server.ClusterStep{
				{Replica: "http://a", Lo: 0, Hi: 4, Event: "done"},
				{Replica: "http://b", Lo: 4, Hi: 8, Event: "resume", Source: "http://c", Seq: 512},
				{Replica: "http://c", Lo: 0, Hi: 4, Event: "audit-ok", Source: "http://a", Digest: "d0"},
			},
			ElapsedMS: 9,
		},
		Audits: []AuditRecord{
			{Lo: 0, Hi: 4, Total: 8, Original: "http://a", Auditor: "http://c", Verdict: "ok", Digest: "d0", AuditorDigest: "d0"},
			{Lo: 4, Hi: 8, Total: 8, Original: "http://b", Auditor: "http://c", Verdict: "liar", Liar: "http://b", Digest: "d1", AuditorDigest: "d2"},
			{Lo: 0, Hi: 4, Total: 8, Original: "http://a", Verdict: "skipped", Err: "no eligible auditor"},
		},
		UpdatedMS: 3000,
	}
	const want = `{"key":"fan-1","request":{"db":"g","query":"exists x . S(x)","engine":"monte-carlo-direct","eps":0.1,"seed":7,"workers":8,"idempotency_key":"fan-1"},"state":"done","ranges":[{"lo":0,"hi":4,"total":8,"sub_key":"fan-1/lanes-0-4-8","replica":"http://a","done":true,"digest":"d0"},{"lo":4,"hi":8,"total":8,"sub_key":"fan-1/lanes-4-8-8","replica":"http://b","checkpoint":"yv4=","checkpoint_seq":512,"checkpoint_from":"http://c","done":true,"digest":"d1"}],"result":{"r":0.75,"h":0.25,"engine":"monte-carlo-direct","guarantee":"absolute(eps,delta)","eps":0.1,"delta":0.05,"samples":1200,"class":"existential","degraded":false,"seed":7,"resumed":true,"cluster_trail":[{"replica":"http://a","hi":4,"event":"done"},{"replica":"http://b","lo":4,"hi":8,"event":"resume","source":"http://c","seq":512},{"replica":"http://c","hi":4,"event":"audit-ok","source":"http://a","digest":"d0"}],"elapsed_ms":9},"audits":[{"lo":0,"hi":4,"total":8,"original":"http://a","auditor":"http://c","verdict":"ok","digest":"d0","auditor_digest":"d0"},{"lo":4,"hi":8,"total":8,"original":"http://b","auditor":"http://c","verdict":"liar","liar":"http://b","digest":"d1","auditor_digest":"d2"},{"lo":0,"hi":4,"total":8,"original":"http://a","verdict":"skipped","err":"no eligible auditor"}],"updated_ms":3000}`
	got, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want {
		t.Errorf("journal bytes changed:\n got %s\nwant %s", got, want)
	}
	var back FanoutRecord
	if err := json.Unmarshal([]byte(want), &back); err != nil {
		t.Fatal(err)
	}
	if again, _ := json.Marshal(back); string(again) != want {
		t.Errorf("decode/encode round trip changed the bytes:\n got %s\nwant %s", again, want)
	}
}
