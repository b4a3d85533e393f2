package nic

import "herdkv/internal/sim"

// PUServer exposes the processing-unit pool to the external tests, whose
// job count and busy time show what each verb charges the NIC.
func (n *NIC) PUServer() *sim.Server { return n.pu }
