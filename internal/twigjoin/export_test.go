package twigjoin

// RefCount exposes the reference DP to the external differential test.
var RefCount = refCount

// MemoHits reports how many counts c's last count answered from its memo.
func MemoHits(c *Counter) int64 { return c.hits }
