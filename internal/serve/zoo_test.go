package serve

import (
	"reflect"
	"testing"

	"repro/internal/model"
)

// TestZooModelMatchesZoo holds the by-name lookup to the zoo listing:
// every zoo name resolves to a model equal to Zoo()'s, and an unknown
// name keeps its error text.
func TestZooModelMatchesZoo(t *testing.T) {
	for _, want := range model.Zoo() {
		got, err := zooModel(want.Name)
		if err != nil {
			t.Fatalf("%s: %v", want.Name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: zooModel = %+v, Zoo has %+v", want.Name, got, want)
		}
	}
	if _, err := zooModel("vgg"); err == nil || err.Error() != `unknown model "vgg"` {
		t.Errorf("unknown model: err = %v, want %q", err, `unknown model "vgg"`)
	}
}

// zooSink keeps the models the allocation test builds on the heap.
var zooSink *model.Model

// TestZooModelAllocs pins the lookup to building one model.
func TestZooModelAllocs(t *testing.T) {
	one := testing.AllocsPerRun(100, func() { zooSink = model.ResNet152() })
	got := testing.AllocsPerRun(100, func() {
		m, err := zooModel("resnet152")
		if err != nil {
			t.Fatal(err)
		}
		zooSink = m
	})
	if got > one {
		t.Errorf("zooModel allocates %v times, one model takes %v", got, one)
	}
}
