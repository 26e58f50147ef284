// The /asm data path: the coordinator validates and keys a user-submitted
// program coordinator-side (malformed JSON or an oversized listing never
// costs a backend round-trip), then routes it by rendezvous-hashing the
// source hash — repeat submissions of the same listing land on the backend
// whose compiled-program cache already holds it. The listing is parsed
// once per distinct body: the front door (frontdoor.go) memoizes the keys
// by body digest, so a warm repeat skips both the JSON decode of the whole
// listing and its source hash (counted in /metrics as body_memo_hits).
// Assembly errors stay a backend concern: the listing is only assembled
// where it runs, and the backend's 400 (with line/column) is relayed
// verbatim.
package cluster

import "mmxdsp/internal/server"

// asmKeys keys a /asm body under the coordinator's source cap.
func (c *Coordinator) asmKeys(body []byte) (requestKeys, error) {
	req, err := server.ParseAsmRequest(body, c.cfg.MaxSourceBytes)
	if err != nil {
		return requestKeys{}, err
	}
	return requestKeys{req.CacheKey(), req.ResultKey()}, nil
}
