package serve

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/harness"
)

// decodeSubmission decodes a request body the way handleSubmit does.
func decodeSubmission(data []byte) (Submission, error) {
	return DecodeSubmission(bytes.NewReader(data))
}

// FuzzSubmission feeds arbitrary request bodies through the submit
// handler's decode and Validate, and holds every accepted submission to
// three properties: BuildScenario maps it to a scenario (validation
// admits nothing the service cannot run), the scenario runs without a
// panic (harness.RunScenario may return an error, such as an exhausted
// event budget), and it survives a JSON round trip unchanged (replay
// tuples store the submission as JSON, so a lossy encoding would replay
// a different experiment). The checked-in corpus
// (testdata/fuzz/FuzzSubmission) holds the three submission shapes the
// end-to-end benchmark sends, one that sets every field of the schema,
// two with a Pareto queue delay: α = 1.5, which Validate refuses (no
// finite variance), and α = 2.5, which it accepts, and three with a
// 1e308 s restore, provisioning latency or preemption mean, which once
// validated and then overflowed the virtual clock mid-run, and which
// Validate now refuses past cloud.MaxSeconds.
func FuzzSubmission(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		sub, err := decodeSubmission(data)
		if err != nil || sub.Validate() != nil {
			return
		}
		sc, err := BuildScenario(sub)
		if err != nil {
			t.Fatalf("valid submission rejected by BuildScenario: %v\n  body: %s", err, data)
		}
		_, _ = harness.RunScenario(sc) // an error is allowed, a panic is not
		enc, err := json.Marshal(sub)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		again, err := decodeSubmission(enc)
		if err != nil {
			t.Fatalf("re-decode %s: %v", enc, err)
		}
		if !reflect.DeepEqual(again, sub) {
			t.Fatalf("JSON round trip changed the submission:\n  before %+v\n  after  %+v", sub, again)
		}
	})
}
