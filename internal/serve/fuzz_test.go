package serve

import (
	"encoding/json"
	"testing"
)

// FuzzCanonicalize checks the content-addressing contract on arbitrary
// request bodies: whenever Canonicalize accepts a request, the result must be
// a fixed point (canonicalizing a status.Request a client echoes back cannot
// drift), its Hash must be stable, and the execution hints must not affect
// the address.
func FuzzCanonicalize(f *testing.F) {
	f.Add([]byte(`{"bench":"mm"}`))
	f.Add([]byte(`{"experiment":"fig13","quick":true}`))
	f.Add([]byte(`{"bench":"PR","size":65536,"modes":["photon","pka","photon"]}`))
	f.Add([]byte(`{"bench":"fir","parallel":8,"timeout_ms":1000}`))
	f.Add([]byte(`{"bench":"Xfmr","size":3}`))
	f.Add([]byte(`{"bench":"trainstep"}`))
	f.Add([]byte(`{"experiment":"fig16","pr_nodes":4096}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		var req JobRequest
		if err := json.Unmarshal(body, &req); err != nil {
			t.Skip()
		}
		c, err := Canonicalize(req)
		if err != nil {
			return // rejection is fine; acceptance carries the obligations
		}
		again, err := Canonicalize(c)
		if err != nil {
			t.Fatalf("canonical form rejected on resubmit: %v\nreq: %+v", err, c)
		}
		h := Hash(c)
		if h2 := Hash(again); h2 != h {
			t.Fatalf("Canonicalize not a fixed point: %+v -> %+v", c, again)
		}
		if h == "" || h != Hash(c) {
			t.Fatalf("Hash unstable for %+v", c)
		}
		req.Parallel += 3
		req.TimeoutMS += 5000
		hinted, err := Canonicalize(req)
		if err != nil {
			t.Fatalf("hints changed admissibility: %v", err)
		}
		if Hash(hinted) != h {
			t.Fatalf("execution hints leaked into the content hash: %+v", req)
		}
	})
}
