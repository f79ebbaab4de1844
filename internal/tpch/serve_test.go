package tpch

import (
	"os"
	"strings"
	"testing"
)

// TestServeCheckRunsServeQueries keeps the shell copy of the statement mix
// in scripts/serve_check.sh identical to ServeQueries, up to whitespace.
func TestServeCheckRunsServeQueries(t *testing.T) {
	raw, err := os.ReadFile("../../scripts/serve_check.sh")
	if err != nil {
		t.Fatal(err)
	}
	script := string(raw)
	for _, q := range ServeQueries() {
		if one := strings.Join(strings.Fields(q), " "); !strings.Contains(script, `"`+one+`"`) {
			t.Errorf("scripts/serve_check.sh does not run %q", one)
		}
	}
}
