package sweep

import (
	"testing"
	"time"

	"pard/internal/trace"
)

// Spec keys are no longer process-local: they travel between coordinator and
// workers as work-unit identifiers, name entries in shared disk caches, and
// seed per-run RNG derivation. Any change to the key grammar silently
// invalidates every cache and desynchronizes mixed-version clusters, so the
// exact strings for the paper's four applications (and engine/shard
// variants) are pinned here. If a change is intentional, update these
// literals AND bump dist.ProtoVersion / sweep's diskFormat so old peers and
// caches are rejected instead of silently mismatched.
//
// The |eng=lane marker dates from when there were two engines and is now a
// frozen literal: dropping it would re-seed every run.
func TestSpecKeyGolden(t *testing.T) {
	const base = "|p={QueueDelay:false LoadFactor:false Budget:false Decomposition:false SampleEvery:0}" +
		"|l=0|slo=0s|w=0s|r=0|rd=0s|fw=[]|fail=[]"
	cases := []struct {
		name string
		spec Spec
		want string
	}{
		{"tm", Spec{App: "tm", Kind: trace.Wiki, Policy: "pard"},
			"tm|wiki|pard" + base + "|eng=lane"},
		{"lv", Spec{App: "lv", Kind: trace.Wiki, Policy: "pard"},
			"lv|wiki|pard" + base + "|eng=lane"},
		{"gm", Spec{App: "gm", Kind: trace.Wiki, Policy: "pard"},
			"gm|wiki|pard" + base + "|eng=lane"},
		{"da", Spec{App: "da", Kind: trace.Wiki, Policy: "pard"},
			"da|wiki|pard" + base + "|eng=lane"},
		{"da-sharded", Spec{App: "da", Kind: trace.Tweet, Policy: "pard", Opts: RunOpts{Shards: 4}},
			"da|tweet|pard" + base + "|eng=lane|sh=4"},
		{"options", Spec{App: "tm", Kind: trace.Steady, Policy: "nexus", Opts: RunOpts{
			Lambda:      0.5,
			SLOOverride: 450 * time.Millisecond,
			SteadyRate:  120,
		}},
			"tm|steady|nexus|p={QueueDelay:false LoadFactor:false Budget:false Decomposition:false SampleEvery:0}" +
				"|l=0.5|slo=450ms|w=0s|r=120|rd=0s|fw=[]|fail=[]|eng=lane"},
	}
	for _, c := range cases {
		if got := c.spec.Key(); got != c.want {
			t.Errorf("%s: Spec.Key drifted\n got:  %q\n want: %q", c.name, got, c.want)
		}
	}

	// The derived seeds these keys imply are part of the same cross-process
	// contract (a worker reproduces the coordinator's seed from the key
	// alone); pin one to catch derivation drift too.
	if got := DeriveSeed(1, "run|"+cases[0].spec.Key()); got != 4234219032747783725 {
		t.Errorf("DeriveSeed drifted: got %d", got)
	}
}
