package pipeline_test

import (
	"fmt"
	"sync"

	"repro/internal/datagen"
	"repro/internal/pipeline"
	"repro/internal/tf"
	"repro/internal/volio"
)

// Render a short time series on 4 nodes in 2 pipeline groups and count
// the delivered frames.
func ExampleRun() {
	store := volio.NewGenStore(datagen.NewJetScaled(0.12, 4))
	var mu sync.Mutex
	frames := 0
	m, err := pipeline.Run(store, pipeline.Options{
		P: 4, L: 2,
		ImageW: 32, ImageH: 32,
		TF: tf.Jet(),
	}, func(f *pipeline.Frame) error {
		mu.Lock()
		frames++
		mu.Unlock()
		return nil
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println(frames, m.Frames, m.Overall > 0)
	// Output: 4 4 true
}
