package twigjoin

// RefCount exposes the reference DP to the external differential test.
var RefCount = refCount
