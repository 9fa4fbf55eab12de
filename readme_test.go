package repro

import (
	"os"
	"strings"
	"testing"

	"repro/internal/harness"
	"repro/internal/serve"
)

// TestReadmeJobFile decodes the job file README.md shows, builds it and
// plans it, so the example cannot drift from the schema.
func TestReadmeJobFile(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, rest, ok := strings.Cut(string(readme), "```json\n")
	if !ok {
		t.Fatal("README.md shows no job file")
	}
	doc, _, ok := strings.Cut(rest, "```")
	if !ok {
		t.Fatal("README.md's job file is not closed")
	}
	sub, err := serve.DecodeSubmission(strings.NewReader(doc))
	if err != nil {
		t.Fatalf("README job file: %v\n%s", err, doc)
	}
	sc, err := serve.BuildScenario(sub)
	if err != nil {
		t.Fatalf("README job file: %v", err)
	}
	if _, err := harness.PlanScenario(sc); err != nil {
		t.Fatalf("README job file does not plan: %v", err)
	}
}
