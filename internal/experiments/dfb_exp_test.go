package experiments

import "testing"

func TestDFBExperiment(t *testing.T) {
	c, _ := quickCtx()
	res, err := c.DFB()
	if err != nil {
		t.Fatal(err)
	}
	if !res.BitIdentical {
		t.Fatal("DFB not bit-identical to binary-swap on the live run")
	}
	if res.DFBBytes <= 0 || res.DFBBytes >= res.SwapBytes {
		t.Fatalf("bytes: DFB %d vs swap %d", res.DFBBytes, res.SwapBytes)
	}
}
