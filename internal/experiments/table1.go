package experiments

import (
	"fmt"

	"repro/internal/compress/codecs"
	"repro/internal/metrics"
)

// Table1Result reports compressed image sizes in bytes per codec and
// image size — the paper's Table 1.
type Table1Result struct {
	Sizes  []int
	Codecs []string
	// Bytes[codec][size] in iteration order of Codecs/Sizes.
	Bytes map[string]map[int]int
	// Dataset the frames came from.
	Dataset string
}

// Table1 measures compressed sizes of real rendered frames.
func (c *Context) Table1() (*Table1Result, error) {
	return c.table1For("jet")
}

func (c *Context) table1For(dataset string) (*Table1Result, error) {
	all, err := codecs.All()
	if err != nil {
		return nil, err
	}
	res := &Table1Result{
		Sizes:   c.sizes(),
		Dataset: dataset,
		Bytes:   map[string]map[int]int{},
	}
	for _, cd := range all {
		res.Codecs = append(res.Codecs, cd.Name())
		res.Bytes[cd.Name()] = map[int]int{}
	}
	for _, s := range res.Sizes {
		f, err := c.frame(dataset, s)
		if err != nil {
			return nil, err
		}
		for _, cd := range all {
			data, err := cd.EncodeFrame(f)
			if err != nil {
				return nil, fmt.Errorf("table1: %s at %d: %w", cd.Name(), s, err)
			}
			n := len(data)
			if cd.Name() == "raw" {
				// The paper's Raw row is the bare pixel payload.
				n = len(f.Pix)
			}
			res.Bytes[cd.Name()][s] = n
		}
	}
	c.printTable1(res)
	return res, nil
}

func (c *Context) printTable1(r *Table1Result) {
	c.printf("Table 1: compressed image sizes in bytes (%s dataset)\n", r.Dataset)
	header := []string{"method"}
	for _, s := range r.Sizes {
		header = append(header, fmt.Sprintf("%d^2", s))
	}
	t := metrics.NewTable(header...)
	for _, name := range r.Codecs {
		row := []string{name}
		for _, s := range r.Sizes {
			row = append(row, fmt.Sprintf("%d", r.Bytes[name][s]))
		}
		t.Row(row...)
	}
	c.printf("%s\n", t.String())
}
