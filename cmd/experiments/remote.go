package main

import (
	"time"

	"repro/internal/retry"
	"repro/internal/serve"
	"repro/internal/serve/client"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// remoteRunner returns a core.Options.Runner that sends each
// static-placement simulation to an mtserve instance. The cell travels
// fully explicit — placement clusters and complete simulator config — so
// COHERENCE placements and ablation configs reproduce exactly; the
// server's result is the same deterministic sim.Result a local run would
// produce, which the differential tests assert byte for byte.
//
// Workloads outside the server's catalog (the synthetic ablation
// variants) fall back to a local run: they are parameterized beyond
// (scale, seed), so no remote cell identity exists for them. Dynamic
// scheduling (a nil placement) stays local too.
func remoteRunner(baseURL string, params workload.Params) func(*trace.Trace, sim.Spec) (*sim.Result, error) {
	cl := client.New(baseURL)
	// Sweeps are patient: ride out queue-full backpressure (429 +
	// Retry-After), restarts and proxy flaps through the shared backoff
	// core rather than failing a multi-minute sweep on a transient
	// rejection — but cap the total patience, and let the final error
	// report how many attempts were spent.
	cl.Policy = retry.Policy{
		BaseDelay:   250 * time.Millisecond,
		MaxDelay:    5 * time.Second,
		MaxAttempts: 240,
	}
	cl.RetryBudget = 2 * time.Minute
	p := serve.Params{Scale: params.Scale, Seed: params.Seed}
	return func(tr *trace.Trace, spec sim.Spec) (*sim.Result, error) {
		if _, err := workload.ByName(tr.App); err != nil || spec.Placement == nil {
			return sim.Run(tr, spec)
		}
		return cl.SimulateCell(p, tr.App, spec.Placement.Algorithm, spec.Placement.Clusters, spec.Config, "")
	}
}
