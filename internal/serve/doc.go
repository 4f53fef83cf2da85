// Package serve turns the one-shot merging pipeline into a long-lived
// merge-as-a-service daemon: a concurrently readable similarity store
// over the LSH index plus an HTTP/JSON API (stdlib
// only) for streaming module submissions, removals, near-duplicate
// queries, incremental re-merges and index snapshot/restore.
//
// The layering is deliberate:
//
//   - Store (store.go) is the concurrent substrate: function
//     fingerprints and one lsh.Index behind one RWMutex. Readers use
//     the index's read-only PeekCandidates entry point, so any number
//     of queries proceed in parallel with each other; inserts and
//     removals take the write lock.
//     Fingerprints use the context-independent stable encoding
//     (fingerprint.EncodeFuncStable) so modules parsed at different
//     times — or restored from a snapshot written by an earlier
//     process — stay comparable.
//   - Server (server.go) owns the module registry, the merge state and
//     the lifecycle: submissions are verified, canonicalized and
//     fingerprinted into the store; Merge links a name-ordered
//     snapshot of the live modules and replays the authoritative
//     core.Run pipeline over it, reusing the validated alignment
//     cache across merges so repeat merges get cheaper while reports
//     stay byte-identical to a one-shot run over the same module set
//     (see DESIGN.md "Serving").
//   - The HTTP layer (http.go) maps the API onto Server methods, with
//     per-endpoint obs counters, the serve.requests/serve.latency_ms
//     aggregates, request spans, and graceful-shutdown draining: once
//     Close begins, new requests get 503 while in-flight ones —
//     including a running merge — complete.
//
// Snapshots (snapshot.go) are a versioned, CRC-guarded, deterministic
// binary encoding of the submitted modules alone; a restore rebuilds
// the store from them. SERVING.md documents the format and every
// endpoint. SelfCheck (smoke.go) drives a real loopback
// server through every route and doubles as the docs-drift gate.
package serve
