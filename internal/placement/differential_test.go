package placement_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/placement"
	"repro/internal/workload"
)

// TestPlacementMatchesFullSortReference asserts the candidate heap
// changes no placement: every algorithm on every application at 2, 4, 8
// and 16 processors gives the same core.PlacementKey as the full-sort
// reference loop, for both the thread-balanced and the load-balanced
// ("+LB") variants.
func TestPlacementMatchesFullSortReference(t *testing.T) {
	opts := core.DefaultOptions()
	opts.Params = workload.Params{Scale: 0.25, Seed: workload.DefaultParams().Seed}
	suite := core.NewSuite(opts)
	for _, app := range workload.Apps() {
		d, err := suite.Sharing(app.Name)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range placement.Names() {
			alg, err := placement.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			for _, procs := range []int{2, 4, 8, 16} {
				got, err := alg.Place(d, procs, 7)
				if err != nil {
					t.Fatalf("%s/%s/%dp: %v", app.Name, name, procs, err)
				}
				want, err := placement.ReferencePlace(d, name, procs, 7)
				if err != nil {
					t.Fatalf("%s/%s/%dp reference: %v", app.Name, name, procs, err)
				}
				if g, w := core.PlacementKey(got), core.PlacementKey(want); g != w {
					t.Errorf("%s/%s/%dp:\n heap      %s\n reference %s", app.Name, name, procs, g, w)
				}
			}
		}
	}
}
