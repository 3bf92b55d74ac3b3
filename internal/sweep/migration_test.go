package sweep

import "testing"

// TestTopoCacheIsolation pins the |topo= key marker: a spec with a
// lane-group topology is a distinct grid point from the flat spec (mirroring
// |sh=), in both directions, so a cache dir populated under one never serves
// the other. Topo entries are bit-identical to flat entries AT THE SAME SEED
// (invariant #5), but the marker changes the derived seed, so a cross-served
// entry would still be a wrong result.
func TestTopoCacheIsolation(t *testing.T) {
	flat := smokeSpec()
	grouped := smokeSpec()
	grouped.Opts.Groups = 2
	flatKey, groupedKey := "run|"+flat.Key(), "run|"+grouped.Key()
	if flatKey == groupedKey {
		t.Fatalf("flat and lane-grouped specs share a cache key: %q", flatKey)
	}

	dirs := []struct {
		name         string
		warm, cold   Spec
		warmK, coldK string
	}{
		{"topo-then-flat", grouped, flat, groupedKey, flatKey},
		{"flat-then-topo", flat, grouped, flatKey, groupedKey},
	}
	for _, d := range dirs {
		t.Run(d.name, func(t *testing.T) {
			dir := t.TempDir()
			e1 := diskEngine(t, dir, 1)
			if _, err := e1.Run(d.warm); err != nil {
				t.Fatal(err)
			}

			e2 := diskEngine(t, dir, 1)
			if _, ok := e2.Lookup(d.warmK); !ok {
				t.Fatalf("%s: populated entry %q not served from disk", d.name, d.warmK)
			}
			if _, ok := e2.Lookup(d.coldK); ok {
				t.Fatalf("%s: entry for %q served across the topology marker (%q)", d.name, d.warmK, d.coldK)
			}
		})
	}
}
