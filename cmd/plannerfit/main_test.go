package main

import (
	"strings"
	"testing"
)

// TestReadSamplesSkipsHits: cache hits replay a measurement, partition hits
// measure no build while their terms price one, and a join of an engine the
// planner does not price (one a request named) carries no terms at all — none
// is a row a term fit can use; the executed sample beside them is.
func TestReadSamplesSkipsHits(t *testing.T) {
	const log = `{"engine":"inmem","terms":{"partition":40,"sweep":5},"measured_ms":47}
{"engine":"inmem","terms":{"partition":40,"sweep":5},"measured_ms":47,"cache_hit":true}
{"engine":"inmem","terms":{"partition":40,"sweep":5},"measured_ms":5,"partition_hit":true}
{"engine":"pbsm","predicted_ms":-1,"measured_ms":310,"excluded":{"pbsm":"no cost model; request explicitly"}}
`
	samples, skipped, err := readSamples(strings.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 1 || skipped != 3 || samples[0].MeasuredMS != 47 {
		t.Fatalf("usable=%+v skipped=%d, want the one executed sample and 3 skipped", samples, skipped)
	}
}
