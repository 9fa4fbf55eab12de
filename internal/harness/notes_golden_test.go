package harness

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateNotes = flag.Bool("update", false, "rewrite the golden files under testdata/")

// noteGoldens pins the rendered event log (CSV and JSON, notes included)
// of three corpus scenarios, one per note-producing executor path.
var noteGoldens = []struct {
	name        string
	seed        uint64
	index       int
	mustContain string // a note the scenario exists to cover
}{
	{"replan", 4, 50, "gang(s) moved"},
	{"preemption", 4, 143, "preempted; will restart stage"},
	{"scatter", 2, 52, "GPUs on"},
}

// TestRenderedNotesGolden: notes are presentation-only and rendered on
// read from typed columns, so their text must stay byte-identical to what
// the executor used to format at record time. Regenerate with
// `go test ./internal/harness -run TestRenderedNotesGolden -update` and
// review the diff.
func TestRenderedNotesGolden(t *testing.T) {
	for _, g := range noteGoldens {
		t.Run(g.name, func(t *testing.T) {
			sc := Generate(g.seed, g.index)
			if g.name == "scatter" && !sc.DisablePlacement {
				t.Fatalf("scenario %d/%d no longer disables placement", g.seed, g.index)
			}
			a, err := RunScenario(sc)
			if err != nil {
				t.Fatal(err)
			}
			var csv, js bytes.Buffer
			if err := a.Recorder.WriteCSV(&csv); err != nil {
				t.Fatal(err)
			}
			if err := a.Recorder.WriteJSON(&js); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(csv.String(), g.mustContain) {
				t.Fatalf("scenario %d/%d renders no %q note", g.seed, g.index, g.mustContain)
			}
			for ext, got := range map[string][]byte{"csv": csv.Bytes(), "json": js.Bytes()} {
				path := filepath.Join("testdata", "notes", fmt.Sprintf("%s.%s", g.name, ext))
				if *updateNotes {
					if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(path, got, 0o644); err != nil {
						t.Fatal(err)
					}
					continue
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("%v (regenerate with -update)", err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("%s: rendering differs from the golden (%d bytes, want %d)", path, len(got), len(want))
				}
			}
		})
	}
}
