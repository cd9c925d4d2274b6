package sim

import (
	"math"
)

// Analytic evaluates the closed-form performance model of Ma, Chiueh
// and Camp ("Processors Management for Rendering Time-varying Volume
// Data Sets", the paper's reference [15]) for a configuration: the
// pipeline's steady-state rate is set by its slowest stage, so
//
//	overall ≈ startup + (steps-1) * max(stage times)
//
// with the stage times computed exactly as in Run. The discrete-event
// schedule in Run captures transients (pipeline fill, buffer limits,
// stragglers) that the closed form ignores; TestAnalyticMatchesRun
// bounds the disagreement.
func Analytic(c Config) (Result, error) {
	if err := c.Validate(); err != nil {
		return Result{}, err
	}
	m, w := c.Machine, c.Work
	G := c.P / c.L
	imb := w.Imbalance
	if imb == nil {
		imb = defaultImbalance
	}
	inputT := float64(w.StepBytes) / m.InputBW
	renderT := w.T1Render.Seconds() / float64(G) * imb(G) * cachePenalty(m, w.VolumeMB/float64(G))
	compositeT := binarySwapTime(G, w.ImageW*w.ImageH*16, m)
	syncT := 0.0
	if G > 1 {
		syncT = m.DistOverhead.Seconds() * float64(G)
	}
	rawImage := float64(w.ImageW * w.ImageH * 3)
	compressT := w.CompressSecPerByte * rawImage / float64(G) * m.CPUScale
	groupT := renderT + compositeT + syncT + compressT
	sendT := 0.0
	if w.Link.Bandwidth > 0 {
		sendT = rawImage * w.CompressRatio / w.Link.Bandwidth
	}
	lat := w.Link.Latency.Seconds()
	decodeT := w.DecompressSecPerByte * rawImage * m.ViewerScale

	startup := inputT + groupT + sendT + lat + decodeT

	var bottleneck float64
	if c.NoPipeline || c.L == 1 {
		// Sequential input+render per step; output still overlaps the
		// next step's work.
		bottleneck = math.Max(inputT+groupT, math.Max(sendT, decodeT))
	} else {
		bottleneck = math.Max(inputT, groupT/float64(c.L))
		bottleneck = math.Max(bottleneck, math.Max(sendT, decodeT))
	}
	overall := startup + float64(w.Steps-1)*bottleneck

	res := Result{
		StartupLatency:    secDur(startup),
		Overall:           secDur(overall),
		RenderPerFrame:    secDur(groupT),
		TransportPerFrame: secDur(sendT + lat),
		DecodePerFrame:    secDur(decodeT),
		InputPerFrame:     secDur(inputT),
	}
	if w.Steps > 1 {
		res.InterFrameDelay = secDur(bottleneck)
	}
	return res, nil
}
