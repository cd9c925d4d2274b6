// Acceleration: the §7.1 "preprocessing hints" extensions in action.
// Renders a short jet animation three ways and compares the work done:
//
//  1. plain ray casting,
//  2. with macrocell empty-space skipping (identical images),
//  3. with differential (temporal-reuse) rendering on a
//     localized-change variant of the data (identical images).
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
	"repro/internal/temporal"
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

	table := metrics.NewTable("mode", "time", "rays", "samples", "skipped/reused")

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
		fmt.Sprint(accelRays), fmt.Sprint(accelSamples), fmt.Sprintf("%d skipped", skipped))

	// 3. Differential rendering across the animation.
	cache := temporal.New()
	var diffTime time.Duration
	var diffSamples, reused int
	for s := 0; s < steps; s++ {
		v, err := store.Fetch(20 + s)
		if err != nil {
			log.Fatal(err)
		}
		t0 := time.Now()
		_, st, err := cache.Render(v, cam, tfn, render.DefaultOptions(), size, size)
		if err != nil {
			log.Fatal(err)
		}
		diffTime += time.Since(t0)
		diffSamples += st.Samples
		reused += st.ReusedPixels
	}
	table.Row("differential", diffTime.Round(time.Millisecond).String(),
		"-", fmt.Sprint(diffSamples), fmt.Sprintf("%d px reused", reused))

	fmt.Printf("%d frames of the jet at %dx%d:\n\n%s\n", steps, size, size, table.String())
	fmt.Println("all three modes produce identical images (see internal/render and")
	fmt.Println("internal/temporal tests for the bit-exactness proofs)")
}
