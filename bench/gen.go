package main

import (
	"encoding/binary"
	"math"
	"math/rand/v2"
)

// The benchmark makes its own inputs, so that a change to the program's
// generators (internal/workload) cannot move what the benchmark asks for.

// zipf draws ranks 0..n-1 with P(rank k) ∝ 1/(k+1)^theta for theta < 1,
// using the closed-form approximation of Gray et al. ("Quickly generating
// billion-record synthetic databases", SIGMOD 1994), the YCSB generator:
// one Float64 and one Pow per draw.
type zipf struct {
	r                  *rand.Rand
	n                  float64
	theta, alpha, eta  float64
	zetan, halfPowerTh float64
}

func newZipf(r *rand.Rand, n int, theta float64) *zipf {
	zeta := func(m int) float64 {
		var s float64
		for i := m; i >= 1; i-- { // smallest terms first
			s += math.Pow(float64(i), -theta)
		}
		return s
	}
	zetan := zeta(n)
	return &zipf{
		r: r, n: float64(n), theta: theta,
		alpha:       1 / (1 - theta),
		eta:         (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta(2)/zetan),
		zetan:       zetan,
		halfPowerTh: 1 + math.Pow(0.5, theta),
	}
}

func (z *zipf) next() int {
	u := z.r.Float64()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < z.halfPowerTh {
		return 1
	}
	k := int(z.n * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if k >= int(z.n) {
		k = int(z.n) - 1
	}
	return k
}

// keyStream turns Zipf ranks into keys 0..n-1 scattered over the key space:
// key = (rank*stride + offset) mod n is a bijection because stride is
// coprime to n, and the seed moves the offset, so each seed has its own hot
// keys.
type keyStream struct {
	z              *zipf
	n, stride, off uint64
}

func newKeyStream(seed uint64, stream uint64, n int, theta float64) *keyStream {
	r := rand.New(rand.NewPCG(seed, stream))
	stride := uint64(n)*6/10 | 1
	for gcd(stride, uint64(n)) != 1 {
		stride += 2
	}
	return &keyStream{z: newZipf(r, n, theta), n: uint64(n), stride: stride, off: r.Uint64N(uint64(n))}
}

func gcd(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func (k *keyStream) next() uint64 { return (uint64(k.z.next())*k.stride + k.off) % k.n }

// rng exposes the stream's generator for the op-mix draws, so one seeded
// stream decides both which key and which operation.
func (k *keyStream) rng() *rand.Rand { return k.z.r }

// mix64 is the splitmix64 finaliser: the filler of generated values and
// pages, cheap enough to recompute when a read is checked.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// fillValue writes the value of (key, version) into dst: key, version, then
// filler words derived from both. Every byte is a function of (key,
// version, len(dst)), which is what lets the oracle keep only a version per
// key. len(dst) must be at least 24.
func fillValue(dst []byte, key uint64, version uint32) {
	binary.LittleEndian.PutUint64(dst[0:], key)
	binary.LittleEndian.PutUint64(dst[8:], uint64(version))
	w := mix64(key<<20 ^ uint64(version))
	i := 16
	for ; i+8 <= len(dst); i += 8 {
		binary.LittleEndian.PutUint64(dst[i:], w)
		w = w*0x2545f4914f6cdd1d + 1
	}
	for ; i < len(dst); i++ {
		dst[i] = byte(w)
		w >>= 8
	}
}

// valueVersion checks the cheap part of a value read on the hot path — its
// key, and the first filler word, which depends on the version — and
// returns the version it carries. The full bytes are compared at quiesce.
func valueVersion(v []byte, key uint64) (uint32, bool) {
	if len(v) < 24 || binary.LittleEndian.Uint64(v[0:]) != key {
		return 0, false
	}
	ver := binary.LittleEndian.Uint64(v[8:])
	if ver > math.MaxUint32 || binary.LittleEndian.Uint64(v[16:]) != mix64(key<<20^ver) {
		return 0, false
	}
	return uint32(ver), true
}
