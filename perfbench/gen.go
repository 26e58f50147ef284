package main

import (
	"encoding/json"
	"math/rand"

	"mmxdsp/internal/campaign"
	"mmxdsp/internal/core"
	"mmxdsp/internal/server"
)

// The generator turns the workload seed into the requests the system sees.
// Everything here is a pure function of its arguments, so one seed always
// yields one request sequence and one campaign grid.

// serveConfigs are the four timing configurations of the serve_warm key
// space: the paper's machine and three ablations.
var serveConfigs = []*server.ConfigOverride{
	nil,
	{DisablePairing: true},
	{PerfectCache: true},
	{L1Size: 8192},
}

// asmMaxSource bounds the listings serve_warm submits to POST /asm.
const asmMaxSource = 256 << 10

// Per unit of serve_warm traffic: 128 /run, 16 revalidations and one /asm
// of each of the 16 listings. A batch is batchUnits units, so every batch
// has the same composition and its quantiles compare across batches.
const (
	unitRuns   = 128
	unitRevals = 16
	batchUnits = 10
)

type opKind int

const (
	opRun   opKind = iota // POST /run of a key
	opReval               // POST /run of a key with If-None-Match
	opAsm                 // POST /asm of a listing
)

// op is one generated request: a kind and the index of its key (for runs
// and revalidations) or of its listing (for /asm).
type op struct {
	Kind opKind
	Key  int
}

// serveDispatch is the dispatch mode of every serve_warm request: the
// fastest tier, which keeps the cold fill in set-up short.
const serveDispatch = "trace"

// runBodies returns the /run bodies of the serve_warm key space, program
// major: 21 programs × 4 configs.
func runBodies(programs []string) ([][]byte, error) {
	var out [][]byte
	for _, p := range programs {
		for _, cfg := range serveConfigs {
			b, err := json.Marshal(server.RunRequest{Program: p, Dispatch: serveDispatch, Config: cfg})
			if err != nil {
				return nil, err
			}
			out = append(out, b)
		}
	}
	return out, nil
}

// asmBody returns the /asm body submitting one listing.
func asmBody(name, source string) ([]byte, error) {
	return json.Marshal(server.AsmRequest{Name: name, Source: source, Dispatch: serveDispatch})
}

// serveGen draws serve_warm batches. Every key is equally likely, drawn
// from the seed, which also decides the order of every batch.
type serveGen struct {
	rng            *rand.Rand
	keys, listings int
}

func newServeGen(seed int64, keys, listings int) *serveGen {
	return &serveGen{rng: rand.New(rand.NewSource(seed)), keys: keys, listings: listings}
}

// batch returns the next batch of requests.
func (g *serveGen) batch() []op {
	unit := unitRuns + unitRevals + g.listings
	ops := make([]op, 0, batchUnits*unit)
	for u := 0; u < batchUnits; u++ {
		start := len(ops)
		for i := 0; i < unitRuns; i++ {
			ops = append(ops, op{opRun, g.rng.Intn(g.keys)})
		}
		for i := 0; i < unitRevals; i++ {
			ops = append(ops, op{opReval, g.rng.Intn(g.keys)})
		}
		for i := 0; i < g.listings; i++ {
			ops = append(ops, op{opAsm, i})
		}
		part := ops[start:]
		g.rng.Shuffle(len(part), func(i, j int) { part[i], part[j] = part[j], part[i] })
	}
	return ops
}

// campaignL1Sizes is the L1 geometry axis of the campaign probe.
var campaignL1Sizes = []int{8192, 16384, 32768}

// campaignPenalty draws the campaign probe's l2_miss_penalty. serve_warm's
// keys keep the paper's 15 cycles, so any value drawn here is cold.
func campaignPenalty(seed int64) int {
	const lo = 16
	return lo + rand.New(rand.NewSource(seed)).Intn(core.MaxPenalty-lo+1)
}

// campaignSpec returns the POST /campaign body of the campaign probe.
func campaignSpec(programs []string, l2Miss int) ([]byte, error) {
	return json.Marshal(campaign.Spec{
		Programs: programs,
		Axes: map[string][]int{
			"l1_size":         campaignL1Sizes,
			"l2_miss_penalty": {l2Miss},
		},
	})
}
