// Request decoding and validation for the /run API. Parsing is strict —
// unknown fields, trailing data and out-of-range values are rejected with
// errors answered 400 — and separated from serving so the
// decoder can be fuzzed in isolation (FuzzParseRequest).
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"mmxdsp/internal/core"
	"mmxdsp/internal/pentium"
)

// MaxRequestBody bounds the /run, /campaign and /suite request bodies on
// both tiers; the largest legitimate request is a few KB of JSON.
const MaxRequestBody = 1 << 20

// ErrBodyTooLarge marks a request body over its endpoint's cap; it (and
// ErrSourceTooLarge) answers 413 on both tiers.
var ErrBodyTooLarge = errors.New("request body too large")

// ConfigOverride is the request-level view of pentium.Config plus the
// cache-model ablation. Zero values select the documented defaults, and
// EmmsLatency follows the config convention (nil = ISA table value, 0 =
// free emms ablation).
type ConfigOverride struct {
	MispredictPenalty int  `json:"mispredict_penalty,omitempty"`
	DisablePairing    bool `json:"disable_pairing,omitempty"`
	DisableBTB        bool `json:"disable_btb,omitempty"`
	EmmsLatency       *int `json:"emms_latency,omitempty"`
	MMXMulLatency     int  `json:"mmx_mul_latency,omitempty"`
	PerfectCache      bool `json:"perfect_cache,omitempty"`

	// Cache-hierarchy ablation. Zero geometry fields keep the Pentium
	// defaults (16 KB 4-way L1, 512 KB 4-way L2, 32-byte lines); the
	// penalty pointers follow the EmmsLatency convention (nil = paper
	// value, 0 = free). All are range- and geometry-checked at parse
	// time so a bad grid answers 400 instead of panicking a worker.
	L1Size            int  `json:"l1_size,omitempty"`
	L1Ways            int  `json:"l1_ways,omitempty"`
	L2Size            int  `json:"l2_size,omitempty"`
	L2Ways            int  `json:"l2_ways,omitempty"`
	LineBytes         int  `json:"line_bytes,omitempty"`
	DCacheMissPenalty *int `json:"dcache_miss_penalty,omitempty"`
	L2AccessPenalty   *int `json:"l2_access_penalty,omitempty"`
	L2MissPenalty     *int `json:"l2_miss_penalty,omitempty"`
}

// hasCacheOverride reports whether any cache-hierarchy field departs from
// the defaults; default-config requests stay on the exact default path.
func (c *ConfigOverride) hasCacheOverride() bool {
	return c != nil && (c.L1Size != 0 || c.L1Ways != 0 || c.L2Size != 0 ||
		c.L2Ways != 0 || c.LineBytes != 0 || c.DCacheMissPenalty != nil ||
		c.L2AccessPenalty != nil || c.L2MissPenalty != nil)
}

// cacheSpec resolves the override's cache fields into a core.CacheSpec.
func (c *ConfigOverride) cacheSpec() core.CacheSpec {
	spec := core.DefaultCacheSpec()
	if c == nil {
		return spec
	}
	spec.L1Size, spec.L1Ways = c.L1Size, c.L1Ways
	spec.L2Size, spec.L2Ways = c.L2Size, c.L2Ways
	spec.LineBytes = c.LineBytes
	if c.DCacheMissPenalty != nil {
		spec.DCacheMiss = *c.DCacheMissPenalty
	}
	if c.L2AccessPenalty != nil {
		spec.L2Access = *c.L2AccessPenalty
	}
	if c.L2MissPenalty != nil {
		spec.L2Miss = *c.L2MissPenalty
	}
	return spec
}

// RunRequest is the JSON body of POST /run.
type RunRequest struct {
	// Program is the paper-style program name, e.g. "fft.mmx".
	Program string `json:"program"`
	// Dispatch names the interpreter: "" or any name core.CheckDispatch
	// accepts. Every accepted name runs the same code, so it shapes
	// neither the key nor the response.
	Dispatch string `json:"dispatch,omitempty"`
	// MaxInstrs bounds execution (0 = the runner's generous default).
	MaxInstrs int64 `json:"max_instrs,omitempty"`
	// TimeoutMS is the per-request deadline in milliseconds (0 = the
	// server's default).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// SkipCheck skips output validation against the pure-Go reference.
	SkipCheck bool `json:"skip_check,omitempty"`
	// Config carries timing-model ablation overrides; nil selects the
	// standard Pentium-with-MMX configuration.
	Config *ConfigOverride `json:"config,omitempty"`
}

// ParseRunRequest decodes and validates a /run body. Program existence is
// the caller's concern (it needs the registry); everything syntactic and
// range-checked lives here.
func ParseRunRequest(data []byte) (*RunRequest, error) {
	if len(data) > MaxRequestBody {
		return nil, fmt.Errorf("request body exceeds %d bytes", MaxRequestBody)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var req RunRequest
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("invalid JSON: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("trailing data after request object")
	}
	if req.Program == "" {
		return nil, fmt.Errorf("missing required field %q", "program")
	}
	if err := validateRunFields(req.Dispatch, req.MaxInstrs, req.TimeoutMS, req.Config); err != nil {
		return nil, err
	}
	return &req, nil
}

// validateRunFields range-checks the execution knobs /run and /asm share.
func validateRunFields(dispatch string, maxInstrs, timeoutMS int64, c *ConfigOverride) error {
	if err := core.CheckDispatch(dispatch); err != nil {
		return err
	}
	if maxInstrs < 0 {
		return fmt.Errorf("negative max_instrs %d", maxInstrs)
	}
	if timeoutMS < 0 {
		return fmt.Errorf("negative timeout_ms %d", timeoutMS)
	}
	if c != nil {
		if c.MispredictPenalty < 0 || c.MispredictPenalty > 1000 {
			return fmt.Errorf("mispredict_penalty %d out of range [0, 1000]", c.MispredictPenalty)
		}
		if c.EmmsLatency != nil && (*c.EmmsLatency < 0 || *c.EmmsLatency > 10000) {
			return fmt.Errorf("emms_latency %d out of range [0, 10000]", *c.EmmsLatency)
		}
		if c.MMXMulLatency < 0 || c.MMXMulLatency > 10000 {
			return fmt.Errorf("mmx_mul_latency %d out of range [0, 10000]", c.MMXMulLatency)
		}
		if c.hasCacheOverride() {
			if err := c.cacheSpec().Validate(); err != nil {
				return err
			}
		}
	}
	return nil
}

// pentiumConfig resolves the override into a concrete timing-model config.
func (r *RunRequest) pentiumConfig() pentium.Config {
	cfg := pentium.DefaultConfig()
	if c := r.Config; c != nil {
		if c.MispredictPenalty != 0 {
			cfg.MispredictPenalty = c.MispredictPenalty
		}
		cfg.DisablePairing = c.DisablePairing
		cfg.DisableBTB = c.DisableBTB
		if c.EmmsLatency != nil {
			cfg.EmmsLatency = *c.EmmsLatency
		}
		cfg.MMXMulLatency = c.MMXMulLatency
	}
	return cfg
}

// options builds the runner options for this request. ctx carries the
// request lifecycle (deadline, client disconnect, server drain).
func (r *RunRequest) options(ctx context.Context) core.Options {
	cfg := r.pentiumConfig()
	opt := core.Options{
		Pentium:      &cfg,
		PerfectCache: r.Config != nil && r.Config.PerfectCache,
		MaxInstrs:    r.MaxInstrs,
		SkipCheck:    r.SkipCheck,
		Ctx:          ctx,
	}
	if r.Config.hasCacheOverride() {
		spec := r.Config.cacheSpec()
		opt.Cache = &spec
	}
	return opt
}

// configKey renders the canonical cache-key component for the request's
// configuration: a fixed-order field dump, collision-free by construction.
func (r *RunRequest) configKey() string {
	cfg := r.pentiumConfig()
	perfect := r.Config != nil && r.Config.PerfectCache
	return fmt.Sprintf("mp=%d|np=%t|nb=%t|el=%d|mm=%d|pc=%t|%s",
		cfg.MispredictPenalty, cfg.DisablePairing, cfg.DisableBTB,
		cfg.EmmsLatency, cfg.MMXMulLatency, perfect,
		r.Config.cacheSpec().Key())
}

// CacheKey returns the canonical affinity key for the request: the
// (program, config) pair a coordinator rendezvous-hashes. Every key of one
// program lands on a backend whose compiled-program cache (keyed by the
// program alone) holds the artifact after its first run.
func (r *RunRequest) CacheKey() string {
	return r.Program + "|" + r.configKey()
}

// ResultKey returns the canonical result-cache key: CacheKey extended with
// the fields that shape the response bytes but not the affinity: the
// budget (a budget-truncated run must never answer an unbounded request)
// and skip_check. timeout_ms stays out of both keys: it decides whether a
// run finishes, never what a finished run reports.
func (r *RunRequest) ResultKey() string {
	return r.CacheKey() + fmt.Sprintf("|mi=%d|sc=%t", r.MaxInstrs, r.SkipCheck)
}

// timeout resolves the request deadline against the server default; zero
// means no deadline.
func (r *RunRequest) timeout(def time.Duration) time.Duration {
	if r.TimeoutMS > 0 {
		return time.Duration(r.TimeoutMS) * time.Millisecond
	}
	return def
}

// ReadBody drains r's body under limit bytes: the one body reader of both
// tiers. A Content-Length within the limit sizes the buffer up front, so a
// large listing is read into a single allocation instead of regrowing as
// it arrives; an absent or out-of-range Content-Length falls back to
// growing from 512 bytes. Reading stops at limit+1 bytes, and a body that
// reaches it answers an error wrapping ErrBodyTooLarge — never a silently
// truncated prefix. A body shorter than its Content-Length is a read error.
func ReadBody(r *http.Request, limit int) ([]byte, error) {
	size := 512
	if cl := r.ContentLength; cl > 0 && cl <= int64(limit) {
		size = int(cl) + 1 // the read that reports EOF needs room too
	}
	src := io.LimitReader(r.Body, int64(limit)+1)
	buf := make([]byte, 0, size)
	for {
		n, err := src.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("reading request body: %w", err)
		}
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
	}
	if len(buf) > limit {
		return nil, fmt.Errorf("%w (limit %d bytes)", ErrBodyTooLarge, limit)
	}
	return buf, nil
}
