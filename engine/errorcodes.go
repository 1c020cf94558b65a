// Code generated by engine/gen from README.md; DO NOT EDIT.
//
// Source of truth: the v1 error-code table in README.md (the "| Code | HTTP | Meaning |"
// block). Edit the table, then run `go generate ./engine`. Two gates keep
// this registry honest: TestErrorCodesMatchREADME re-derives the file from
// the table, and the errcodes analyzer (internal/analysis/errcodes, run by
// cmd/acqvet) rejects both raw error-code literals in handlers and registry
// constants no handler can return.

package engine

// errorCode is one code of the closed v1 wire-error vocabulary. Handlers
// never spell codes as raw strings — they name the constants below, so the
// wire vocabulary cannot drift from README's table.
type errorCode string

// v1 error codes, one constant per README table row.
const (
	codeBadRequest         errorCode = "bad_request"          // 400: malformed JSON, missing vertex/id
	codeBadK               errorCode = "bad_k"                // 400: k < 1
	codeBadTheta           errorCode = "bad_theta"            // 400: θ or τ outside (0, 1]
	codeBadEpsilon         errorCode = "bad_epsilon"          // 400: ε outside [0, 1)
	codeBadMode            errorCode = "bad_mode"             // 400: unknown `mode`
	codeBadAlgorithm       errorCode = "bad_algorithm"        // 400: unknown `algo`
	codeTooManyQueries     errorCode = "too_many_queries"     // 400: batch over `-max-batch-queries`
	codeTooManyMutations   errorCode = "too_many_mutations"   // 400: mutation batch over `-max-batch-mutations` (rejected whole)
	codeVertexNotFound     errorCode = "vertex_not_found"     // 404: unknown label / out-of-range ID
	codeNoKCore            errorCode = "no_k_core"            // 404: no community can satisfy the degree bound
	codeCollectionNotFound errorCode = "collection_not_found" // 404: unknown collection name
	codeNotLeader          errorCode = "not_leader"           // 403: write against a read replica (message names the leader)
	codeCollectionExists   errorCode = "collection_exists"    // 409: create against a name already in use
	codeNotDurable         errorCode = "not_durable"          // 409: checkpoint or replication against a collection without durability
	codeBodyTooLarge       errorCode = "body_too_large"       // 413: body over `-max-body-bytes`
	codeOverloaded         errorCode = "overloaded"           // 429: collection at its concurrency quota with a full wait queue (`Retry-After` set)
	codeCanceled           errorCode = "canceled"             // 499: client disconnected / canceled
	codeCollectionFailed   errorCode = "collection_failed"    // 500: the collection's async load/build failed
	codeNoIndex            errorCode = "no_index"             // 503: index-requiring algorithm, no index
	codeIndexBuilding      errorCode = "index_building"       // 503: collection still loading / indexing
	codeReplicaLagging     errorCode = "replica_lagging"      // 503: read replica behind the leader beyond `-max-replica-lag`
	codeDeadlineExceeded   errorCode = "deadline_exceeded"    // 504: request or server timeout expired
)

// codeStatus is the HTTP status each code rides on. 499 is nginx's
// non-standard "client closed request": nothing standard fits "evaluation
// canceled because nobody is listening", and proxies and dashboards widely
// understand it.
var codeStatus = map[errorCode]int{
	codeBadRequest:         400,
	codeBadK:               400,
	codeBadTheta:           400,
	codeBadEpsilon:         400,
	codeBadMode:            400,
	codeBadAlgorithm:       400,
	codeTooManyQueries:     400,
	codeTooManyMutations:   400,
	codeVertexNotFound:     404,
	codeNoKCore:            404,
	codeCollectionNotFound: 404,
	codeNotLeader:          403,
	codeCollectionExists:   409,
	codeNotDurable:         409,
	codeBodyTooLarge:       413,
	codeOverloaded:         429,
	codeCanceled:           499,
	codeCollectionFailed:   500,
	codeNoIndex:            503,
	codeIndexBuilding:      503,
	codeReplicaLagging:     503,
	codeDeadlineExceeded:   504,
}
