package pard_test

import (
	"os"
	"strings"
	"testing"
)

// TestWorkflowNamesAreScalars fails on any single-line name: value in the CI
// workflow that is a plain (unquoted) YAML scalar holding ": ". YAML reads
// that as the start of a mapping, so the whole file stops parsing and no CI
// job runs. It checks lines only: quote such a name, or say it another way.
func TestWorkflowNamesAreScalars(t *testing.T) {
	const path = ".github/workflows/ci.yml"
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	names := 0
	for i, line := range strings.Split(string(raw), "\n") {
		key := strings.TrimPrefix(strings.TrimSpace(line), "- ")
		value, ok := strings.CutPrefix(key, "name:")
		if !ok {
			continue
		}
		names++
		value = strings.TrimSpace(value)
		if value == "" || strings.ContainsAny(value[:1], `"'|>`) {
			continue // quoted, or a block scalar on the lines below
		}
		if strings.Contains(value, ": ") {
			t.Errorf("%s:%d: the unquoted name %q holds \": \", so the workflow does not parse", path, i+1, value)
		}
	}
	if names == 0 {
		t.Fatalf("%s has no name: lines; is the test running at the module root?", path)
	}
}
