// Acceleration: the §7.1 "preprocessing hints" extensions in action.
// Renders a short jet animation two ways and compares the work done:
//
//  1. plain ray casting,
//  2. with macrocell empty-space skipping (identical images).
//
// go run ./examples/acceleration
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/accel"
	"repro/internal/datagen"
	"repro/internal/metrics"
	"repro/internal/render"
	"repro/internal/tf"
	"repro/internal/volio"
)

func main() {
	const (
		steps = 4
		size  = 192
	)
	store := volio.NewGenStore(datagen.NewJetScaled(0.4, 40))
	tfn := tf.Jet()
	cam := (*render.Camera)(nil)

	table := metrics.NewTable("mode", "time", "rays", "samples", "skipped")

	// 1. Plain.
	var plainTime time.Duration
	var plainRays, plainSamples int
	for s := 0; s < steps; s++ {
		v, err := store.Fetch(20 + s)
		if err != nil {
			log.Fatal(err)
		}
		if cam == nil {
			cam, err = render.NewOrbitCamera(v.Dims, 0.6, 0.35, 1.3)
			if err != nil {
				log.Fatal(err)
			}
		}
		t0 := time.Now()
		_, st, err := render.Render(v, cam, tfn, render.DefaultOptions(), size, size)
		if err != nil {
			log.Fatal(err)
		}
		plainTime += time.Since(t0)
		plainRays += st.Rays
		plainSamples += st.Samples
	}
	table.Row("plain", plainTime.Round(time.Millisecond).String(), fmt.Sprint(plainRays), fmt.Sprint(plainSamples), "-")

	// 2. Empty-space skipping.
	var accelTime time.Duration
	var accelRays, accelSamples, skipped int
	for s := 0; s < steps; s++ {
		v, err := store.Fetch(20 + s)
		if err != nil {
			log.Fatal(err)
		}
		t0 := time.Now()
		whole, err := v.Extract(v.Bounds(), 0)
		if err != nil {
			log.Fatal(err)
		}
		grid, err := accel.Build(whole, 0)
		if err != nil {
			log.Fatal(err)
		}
		opt := render.DefaultOptions()
		opt.Accel = grid
		_, st, err := render.Render(v, cam, tfn, opt, size, size)
		if err != nil {
			log.Fatal(err)
		}
		accelTime += time.Since(t0)
		accelRays += st.Rays
		accelSamples += st.Samples
		skipped += st.Skipped
	}
	// Rays falls because rays are clipped to the non-empty macrocells;
	// skipped counts only the samples leapt along the rays still cast.
	table.Row("empty-space skip", accelTime.Round(time.Millisecond).String(),
		fmt.Sprint(accelRays), fmt.Sprint(accelSamples), fmt.Sprint(skipped))

	fmt.Printf("%d frames of the jet at %dx%d:\n\n%s\n", steps, size, size, table.String())
	fmt.Println("both modes produce identical images (see the internal/render tests")
	fmt.Println("for the bit-exactness proofs)")
}
