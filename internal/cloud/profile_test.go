package cloud

import (
	"math"
	"strings"
	"testing"

	"repro/internal/stats"
)

// TestPaperProfile: the paper's cloud is p3.8xlarge workers on the
// default pricing and overheads with a 2 s restore and no faults, and
// it validates.
func TestPaperProfile(t *testing.T) {
	p := PaperProfile(12)
	if p.Instance.Name != "p3.8xlarge" || p.Pricing != DefaultPricing() || p.Overheads != DefaultOverheads() ||
		p.DatasetGB != 12 || p.RestoreSeconds != 2 || p.Faults != (FaultModel{}) {
		t.Fatalf("PaperProfile(12) = %+v", p)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestProfileValidateBoundsDurations: every duration a profile holds
// must be finite, non-negative and at most MaxSeconds, and the error
// names the field. A profile with every duration at the bound, and one
// with heavy-tailed or nil overheads, validates.
func TestProfileValidateBoundsDurations(t *testing.T) {
	at := PaperProfile(0)
	at.RestoreSeconds = MaxSeconds
	at.Pricing.MinChargeSeconds = MaxSeconds
	at.Faults.PreemptionMeanSeconds = MaxSeconds
	at.Overheads = Overheads{
		QueueDelay:  stats.Normal{Mu: MaxSeconds, Sigma: MaxSeconds},
		InitLatency: stats.Exponential{MeanValue: MaxSeconds},
	}
	if err := at.Validate(); err != nil {
		t.Fatalf("durations at the bound refused: %v", err)
	}
	lax := PaperProfile(0)
	lax.Overheads = Overheads{QueueDelay: stats.Pareto{Scale: 2, Alpha: 1.5}}
	if err := lax.Validate(); err != nil {
		t.Fatalf("a heavy-tailed queue delay and a nil init latency refused: %v", err)
	}

	past := math.Nextafter(MaxSeconds, math.Inf(1))
	for _, c := range []struct {
		field string
		edit  func(*Profile)
	}{
		{"restore_seconds", func(p *Profile) { p.RestoreSeconds = 1e308 }},
		{"restore_seconds", func(p *Profile) { p.RestoreSeconds = past }},
		{"restore_seconds", func(p *Profile) { p.RestoreSeconds = -1 }},
		{"restore_seconds", func(p *Profile) { p.RestoreSeconds = math.NaN() }},
		{"restore_seconds", func(p *Profile) { p.RestoreSeconds = math.Inf(1) }},
		{"min_charge_seconds", func(p *Profile) { p.Pricing.MinChargeSeconds = past }},
		{"min_charge_seconds", func(p *Profile) { p.Pricing.MinChargeSeconds = math.NaN() }},
		{"preemption_mean_seconds", func(p *Profile) { p.Faults.PreemptionMeanSeconds = 1e308 }},
		{"preemption_mean_seconds", func(p *Profile) { p.Faults.PreemptionMeanSeconds = math.Inf(1) }},
		{"provision_failure_prob", func(p *Profile) { p.Faults.ProvisionFailureProb = 1 }},
		{"queue_delay", func(p *Profile) { p.Overheads.QueueDelay = stats.Deterministic{Value: 1e308} }},
		{"queue_delay", func(p *Profile) { p.Overheads.QueueDelay = stats.Normal{Mu: 1, Sigma: 1e308} }},
		{"queue_delay", func(p *Profile) { p.Overheads.QueueDelay = stats.Normal{Mu: -1} }},
		{"init_latency", func(p *Profile) { p.Overheads.InitLatency = stats.Deterministic{Value: 1e308} }},
		{"init_latency", func(p *Profile) { p.Overheads.InitLatency = stats.LogNormalFromMoments(1e-300, 1e6) }},
		{"init_latency", func(p *Profile) { p.Overheads.InitLatency = stats.Exponential{MeanValue: math.NaN()} }},
		{"dataset_gb", func(p *Profile) { p.DatasetGB = -1 }},
		{"dataset_gb", func(p *Profile) { p.DatasetGB = math.Inf(1) }},
	} {
		p := PaperProfile(0)
		c.edit(&p)
		if err := p.Validate(); err == nil || !strings.Contains(err.Error(), c.field) {
			t.Errorf("%+v: Validate error %v, want one naming %s", p, err, c.field)
		}
	}
}
