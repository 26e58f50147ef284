// POST /asm: user-submitted program execution — the front door that turns
// the daemon from a curated-suite harness into a multi-tenant simulation
// service. The request carries a textual listing (the syntax
// asm.ParseSource accepts and Program.Source emits) plus the same
// ablation/budget knobs as /run; the response carries the same
// profile report a /run of an identical program produces, byte for byte.
//
// The request takes the pipeline's /run path with source in place of a
// registry name: the compiled artifact is keyed by the source hash in the
// shared compiled-program LRU, the response bytes are keyed by
// AsmRequest.ResultKey in the result cache, and AsmRequest.CacheKey is the
// rendezvous affinity key a coordinator routes on — repeat submissions of
// the same source land where it is already compiled, by construction.
// Safety rails user source needs and suite programs do not: a source size
// cap (413), an always-on instruction budget that turns infinite loops into
// partial "budget_exhausted" reports instead of hangs, structured 400s with
// 1-based line/column for parse errors, and per-tenant quotas (tenant.go).
package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"

	"mmxdsp/internal/asm"
	"mmxdsp/internal/core"
	"mmxdsp/internal/profile"
)

// Defaults for the /asm safety rails.
const (
	// DefaultMaxSourceBytes caps submitted listings. The largest suite
	// program serializes to under 2 MiB of source, so 4 MiB admits
	// anything the service itself can emit with headroom.
	DefaultMaxSourceBytes = 4 << 20
	// DefaultAsmMaxInstrs is the default /asm instruction budget: large
	// enough to retire every suite program, small enough that a tight
	// infinite loop exhausts it in seconds.
	DefaultAsmMaxInstrs = 1 << 31
)

// ErrSourceTooLarge marks an oversized submission; RequestErrorStatus maps
// it to 413 rather than the generic 400.
var ErrSourceTooLarge = errors.New("source listing too large")

// AsmRequest is the JSON body of POST /asm.
type AsmRequest struct {
	// Source is the program listing (asm.ParseSource syntax).
	Source string `json:"source"`
	// Name labels the program in the response, report and metrics
	// (default: "asm-" + the first 12 hex digits of the source hash).
	Name string `json:"name,omitempty"`
	// Dispatch, MaxInstrs, TimeoutMS and Config mean exactly what they
	// mean on /run. MaxInstrs is additionally capped by the server's
	// /asm budget ceiling, and exhausting it is not an error: the
	// response reports the retired prefix with budget_exhausted set.
	Dispatch  string          `json:"dispatch,omitempty"`
	MaxInstrs int64           `json:"max_instrs,omitempty"`
	TimeoutMS int64           `json:"timeout_ms,omitempty"`
	Config    *ConfigOverride `json:"config,omitempty"`

	// sourceHash is the full hex SHA-256 of Source, computed at parse.
	sourceHash string
}

// AsmResponse is the JSON body answering POST /asm. Report is identical —
// byte for byte — to what POST /run returns for the same program, the
// conformance suite pins this.
type AsmResponse struct {
	Program    string `json:"program"`
	SourceHash string `json:"source_hash"`
	CacheHit   bool   `json:"cache_hit"`
	// BudgetExhausted marks a partial run: the instruction budget expired
	// before HALT and Report covers only the retired prefix.
	BudgetExhausted bool            `json:"budget_exhausted,omitempty"`
	WallNS          int64           `json:"wall_ns"`
	InstrsPerSec    float64         `json:"instrs_per_sec"`
	Blocks          core.BlockStats `json:"blocks"`
	Report          *profile.Report `json:"report"`
}

// ParseAsmRequest decodes and validates a /asm body against the source
// size cap. Oversized sources return an error wrapping ErrSourceTooLarge;
// everything else invalid maps to 400. The source is hashed here, once,
// so every later tier (caches, routing) reuses the digest.
func ParseAsmRequest(data []byte, maxSourceBytes int) (*AsmRequest, error) {
	if maxSourceBytes <= 0 {
		maxSourceBytes = DefaultMaxSourceBytes
	}
	if len(data) > AsmBodyLimit(maxSourceBytes) {
		return nil, fmt.Errorf("%w: request body exceeds %d bytes", ErrSourceTooLarge, AsmBodyLimit(maxSourceBytes))
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var req AsmRequest
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("invalid JSON: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("trailing data after request object")
	}
	if req.Source == "" {
		return nil, fmt.Errorf("missing required field %q", "source")
	}
	if len(req.Source) > maxSourceBytes {
		return nil, fmt.Errorf("%w: %d bytes (limit %d)", ErrSourceTooLarge, len(req.Source), maxSourceBytes)
	}
	if len(req.Name) > 200 {
		return nil, fmt.Errorf("name exceeds 200 bytes")
	}
	if err := validateRunFields(req.Dispatch, req.MaxInstrs, req.TimeoutMS, req.Config); err != nil {
		return nil, err
	}
	sum := sha256.Sum256([]byte(req.Source))
	req.sourceHash = hex.EncodeToString(sum[:])
	return &req, nil
}

// AsmBodyLimit bounds the whole /asm request body on both tiers: the
// source cap, doubled for worst-case JSON string escaping, plus slack for
// the other fields.
func AsmBodyLimit(maxSourceBytes int) int {
	return 2*maxSourceBytes + MaxRequestBody
}

// progName is the internal program identity: source-hash-derived, so
// interpreter fault strings are deterministic across submissions
// regardless of the caller-chosen display name. (The compiled-program
// cache keys on the full hash: a 48-bit prefix is cheap to collide.)
func (a *AsmRequest) progName() string { return "asm:" + a.sourceHash[:12] }

// name is the caller-facing display name.
func (a *AsmRequest) name() string {
	if a.Name != "" {
		return a.Name
	}
	return "asm-" + a.sourceHash[:12]
}

// runRequest views the submission as a RunRequest so the option plumbing
// (timing config, budget, timeouts) is shared with /run, not duplicated.
// SkipCheck is inherent: user programs have no reference implementation
// to validate against.
func (a *AsmRequest) runRequest() *RunRequest {
	return &RunRequest{
		Program:   a.progName(),
		MaxInstrs: a.MaxInstrs,
		TimeoutMS: a.TimeoutMS,
		SkipCheck: true,
		Config:    a.Config,
	}
}

// CacheKey is the affinity key: source hash and timing config — the
// string a coordinator rendezvous-hashes so repeat submissions land on the
// backend already holding the compiled listing.
func (a *AsmRequest) CacheKey() string {
	return "asm|h=" + a.sourceHash + "|" + a.runRequest().configKey()
}

// ResultKey extends CacheKey with the fields that shape response bytes but
// not the affinity: the budget (a truncated run reports different bytes)
// and the display name (stamped into the response and report).
func (a *AsmRequest) ResultKey() string {
	return a.CacheKey() + fmt.Sprintf("|mi=%d|n=%s", a.MaxInstrs, a.name())
}

// capAsmInstrs resolves the /asm budget: the tighter of the /asm ceiling
// and the server-wide cap, defaulting absent budgets to it. Unlike /run,
// a cap is always in force unless explicitly disabled (negative).
func (s *Server) capAsmInstrs(req int64) (int64, error) {
	limit := s.cfg.AsmMaxInstrsCap
	if s.cfg.MaxInstrsCap > 0 && (limit <= 0 || s.cfg.MaxInstrsCap < limit) {
		limit = s.cfg.MaxInstrsCap
	}
	if limit <= 0 {
		return req, nil
	}
	if req == 0 {
		return limit, nil
	}
	if req > limit {
		return 0, fmt.Errorf("max_instrs %d exceeds the /asm cap %d", req, limit)
	}
	return req, nil
}

// executeAsm is one local /asm under an admission slot: assemble and
// compile through the shared compiled-program cache (keyed by source hash,
// so repeat submissions skip the assembler), one interpreter run with
// PartialOnBudget, marshal.
func (s *Server) executeAsm(ctx context.Context, req *AsmRequest) ([]byte, int64, error) {
	comp, hit, err := s.cache.get("asm:"+req.sourceHash, func() (*core.Compiled, error) {
		prog, err := asm.ParseSource(req.progName(), req.Source)
		if err != nil {
			return nil, err
		}
		return core.CompileProgram(req.progName(), prog), nil
	})
	if err != nil {
		return nil, 0, err
	}
	// Serve under the caller's display name via a shallow copy; the cached
	// artifact keeps its hash-derived identity for other submitters.
	named := *comp
	named.Benchmark.Base = req.name()

	opt := req.runRequest().options(ctx)
	opt.PartialOnBudget = true
	res, err := core.RunCompiled(&named, opt)
	if err != nil {
		return nil, 0, err
	}
	s.metrics.asmRuns.Add(1)
	s.metrics.recordRun(req.name(), res.Report.DynamicInstructions, res.Wall)
	s.metrics.recordTraces(res.Traces)

	body, err := marshalResponse(AsmResponse{
		Program:         req.name(),
		SourceHash:      req.sourceHash,
		CacheHit:        hit,
		BudgetExhausted: res.BudgetExhausted,
		WallNS:          res.Wall.Nanoseconds(),
		InstrsPerSec:    res.InstrsPerSec(),
		Blocks:          res.Blocks,
		Report:          res.Report,
	})
	return body, int64(res.Report.DynamicInstructions), err
}
