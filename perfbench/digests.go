package main

// Per-simulation digests of the default seed, in pass order (see
// simOp.run): ticks, total transmissions, total mass deliveries and the
// per-node completion vector. A speed-only change leaves them unchanged.
var (
	// Three table1 cells × (LocalBcast, Decay, FixedProb).
	localDenseDigests = []uint64{
		0x562ee7f7b4437b4d, 0x4a9acdb3321f9817, 0xb3a9b5d2c49b3fa2,
		0x1bbdbad60974be97, 0x46569a33fdf70179, 0x5f64310f64f8a4aa,
		0x6e7cc900dae65727, 0x1f9db18783657746, 0x1119569ff898c98a,
	}
	// Three table12 seeds × five cells (fault specs) × (LocalBcast, Bcast).
	faultsMixedDigests = []uint64{
		0xa947b3d1f994c22b, 0xe0e1724ba133f4b3,
		0xe2be035843f5aaed, 0x7d27e4aabb754e7e,
		0x8b3f84719395e79b, 0x508f3e01cb5444c0,
		0xf773e0299a559530, 0xf34af3b3b86d7fee,
		0xed06510c49072319, 0x16724a52741d09f4,
		0x8ce43b31ca361191, 0x5969fe094335a183,
		0x4c694ba20bb5ab3d, 0x8cd6c5be273b2864,
		0x473f2dc4766a032b, 0xa468bcb7833796b0,
		0x6072013cc9fb9c96, 0xa60ac73134ac58f8,
		0xe5ccd4fa33a30854, 0x6f5ae64c2c2b4b85,
		0x36bdfd7e12e55a6b, 0x54dd329b9b3ef329,
		0x5275ccc605a8ac88, 0x6ae1780b0a43d479,
		0xf4c53e8710c1011a, 0xba66df78a2e7a1bf,
		0x20222bf701cff82d, 0x11c1ff7a3bdfbe25,
		0xfa731b9f975bd0c0, 0xbeae7d4327957c75,
	}
	// Short mode: smaller networks.
	localDenseShortDigests = []uint64{
		0x51743d2ac940571b, 0x5b656e789ed50fe8, 0x7998aecadf531850,
	}
	faultsMixedShortDigests = []uint64{
		0x1ac145d348c5aa86, 0x4837aa350e1426f4,
		0xed42e80e4753a0e2, 0x3254d51d09273bfe,
		0x2a6473bff414d495, 0x7e0df9ee11bea625,
		0xc1967a5b892d8a95, 0xd897518c177dbbc8,
		0xc5a05c26cff5e40c, 0xde9a5dfe384b14,
	}
)
