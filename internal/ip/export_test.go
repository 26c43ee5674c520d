package ip

// SetPlainPackets makes every constructor hand out plain, garbage-collected
// packets until the returned function is called: the oracle tests run one
// exchange both ways and compare.
func SetPlainPackets() (restore func()) {
	plainPackets = true
	return func() { plainPackets = false }
}
