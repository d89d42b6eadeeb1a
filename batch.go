package querycause

// BatchRequest names one answer or non-answer of a workload to explain.
type BatchRequest struct {
	// Query is the conjunctive query; it may be Boolean (no Answer).
	Query *Query
	// Answer is the (non-)answer tuple bound into the head.
	Answer []Value
	// WhyNo explains why Answer is NOT returned instead of why it is.
	WhyNo bool
}

// BatchResult pairs a request with its ranking. Err is per-request: an
// invalid request (bad binding, invalid Why-No instance) fails alone
// without aborting the rest of the batch.
type BatchResult struct {
	Request      BatchRequest
	Explanations []Explanation
	Err          error
}
