package main

import (
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/serve/client"
)

// TestCrossCheckFlagZeroIsOff: -crosscheck 0 turns runtime engine
// cross-checking off — sixteen guarded cells, the default sampling
// period, run without a single reference-engine check.
func TestCrossCheckFlagZeroIsOff(t *testing.T) {
	srv := serve.NewServer(serve.Options{Workers: 2, SampleEvery: sampleEvery(0)})
	ts := httptest.NewServer(srv.Handler())
	defer srv.Drain()
	defer ts.Close()

	cl := client.New(ts.URL)
	acc, err := cl.Sweep(&serve.SweepRequest{
		Params:     &serve.Params{Scale: 0.1, Seed: 1994},
		Apps:       []string{"MP3D", "Water"},
		Algorithms: []string{"RANDOM", "LOAD-BAL", "SHARE-REFS", "MIN-SHARE"},
		Procs:      []int{2, 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := cl.WaitJob(acc.Job, 10*time.Millisecond, 2*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if st.Status != serve.StatusDone {
		t.Fatalf("sweep ended %s: %s", st.Status, st.Error)
	}
	if runs, checks := srv.Guard().Stats(); runs != 16 || checks != 0 {
		t.Errorf("runs/cross-checks = %d/%d, want 16/0", runs, checks)
	}
}
