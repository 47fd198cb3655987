package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"log"
	"math"
	"math/big"
	"math/bits"
	"net/http"
	"reflect"
	"strconv"
	"sync"
)

// writeAnswer writes the POST /answer 200 response. Its bytes are
// json.Marshal(answerResponse{answers, fp}) and a newline, appended
// straight into a pooled buffer sized from the batch. A non-finite
// answer, which JSON cannot carry, gets a 500 with encoding/json's error
// before any byte reaches w.
//
//lrm:sink — answers are serialized onto the wire
func writeAnswer(w http.ResponseWriter, answers [][]float64, fp string) {
	buf := respPool.Get().(*bytes.Buffer)
	defer putBuffer(&respPool, buf)
	buf.Reset()
	buf.Grow(answerResponseBound(answers, fp))
	body, err := appendAnswerResponse(buf.AvailableBuffer(), answers, fp)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "encoding response: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if _, err := w.Write(body); err != nil {
		log.Printf("lrmserve: writing response: %v", err)
	}
}

// respPool recycles response buffers: a spec-batch response is about
// 300 KiB. It is apart from bodyPool so that a small response never
// holds a megabyte request buffer that a concurrent request then has to
// allocate again.
var respPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxFloatLen bounds what appendFloat writes for one float64: a sign,
// "0.00000" and 17 significant digits at the bottom of the 'f' range, or
// a sign, 17 digits, a point and "e-308" in the 'e' range.
const maxFloatLen = 25

// answerResponseBound bounds the bytes appendAnswerResponse writes, so a
// buffer grown to it is never reallocated by the append.
func answerResponseBound(answers [][]float64, fp string) int {
	n := len(`{"answers":null,"fingerprint":""}`+"\n") + 6*len(fp)
	for _, row := range answers {
		n += len("null,") + len(row)*(maxFloatLen+1)
	}
	return n
}

// appendAnswerResponse appends what json.Marshal writes for
// answerResponse{answers, fp}, and a newline. A nil answer set or row is
// null, an empty one []. A non-finite answer is an error, the one
// json.Marshal returns for it.
func appendAnswerResponse(b []byte, answers [][]float64, fp string) ([]byte, error) {
	b = append(b, `{"answers":`...)
	if answers == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, row := range answers {
			if i > 0 {
				b = append(b, ',')
			}
			if row == nil {
				b = append(b, "null"...)
				continue
			}
			b = append(b, '[')
			for j, v := range row {
				if j > 0 {
					b = append(b, ',')
				}
				if math.IsInf(v, 0) || math.IsNaN(v) {
					return nil, &json.UnsupportedValueError{Value: reflect.ValueOf(v), Str: strconv.FormatFloat(v, 'g', -1, 64)}
				}
				b = appendFloat(b, v)
			}
			b = append(b, ']')
		}
		b = append(b, ']')
	}
	b = append(b, `,"fingerprint":`...)
	b = appendString(b, fp)
	return append(b, "}\n"...), nil
}

// appendString appends s as encoding/json writes a string. Fingerprints
// are hex digests behind an ASCII prefix, which need no escape; any other
// string takes encoding/json's own path.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c > 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always encodes
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendFloat appends the finite f as encoding/json writes a float64:
// its shortest round-trip digits, in 'f' form when 1e-6 <= |f| < 1e21 and
// otherwise in 'e' form, with a one-digit negative exponent written
// without its leading 0 (e-7, not e-07).
//
// The 'f' range is formatted here, with Ryu's shortest algorithm (Adams,
// "Ryū: fast float-to-string conversion", PLDI 2018); the 'e' range,
// which answers rarely reach, goes to strconv.
func appendFloat(b []byte, f float64) []byte {
	abs := math.Abs(f)
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		b = strconv.AppendFloat(b, f, 'e', -1, 64)
		if n := len(b); b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
		return b
	}
	u := math.Float64bits(f)
	if u>>63 != 0 {
		b = append(b, '-')
	}
	if abs == 0 {
		return append(b, '0')
	}
	m, e := ryuShortest(u)
	return appendDecimal(b, m, e)
}

// appendDecimal appends m×10^e, 0 < m < 10^17 without trailing zeros,
// in 'f' form: "0.000ddd", "dd.ddd" or "ddd000".
func appendDecimal(b []byte, m uint64, e int) []byte {
	// m's digits, right-aligned in blocks of eight.
	var tmp [25]byte
	nd := decimalLen(m)
	put8(tmp[17:], m%1e8)
	if m >= 1e8 {
		m /= 1e8
		put8(tmp[9:], m%1e8)
		put8(tmp[1:], m/1e8)
	}
	start := len(tmp) - nd
	switch dp := nd + e; {
	case dp <= 0:
		b = append(b, "0."...)
		b = append(b, zeros[:-dp]...)
		return append(b, tmp[start:]...)
	case dp >= nd:
		b = append(b, tmp[start:]...)
		return append(b, zeros[:dp-nd]...)
	default:
		// Shift the integer digits left one byte to open the point.
		for i := start; i < start+dp; i++ {
			tmp[i-1] = tmp[i]
		}
		tmp[start+dp-1] = '.'
		return append(b, tmp[start-1:]...)
	}
}

// decimalLen is the number of decimal digits of 0 < m < 10^19.
func decimalLen(m uint64) int {
	n := bits.Len64(m) * 1233 >> 12 // ⌊log10(2^len(m))⌋
	if m >= pow10[n] {
		n++
	}
	return n
}

var pow10 = [...]uint64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19}

// put8 writes the eight decimal digits of v < 1e8, zero-padded, to d, in
// parallel lanes of one uint64: v splits into two 4-digit halves in
// 32-bit lanes, each half into two 2-digit quarters in 16-bit lanes, and
// each quarter into two digits in bytes. Each lane divides by a
// multiply and shift that is exact for its range (n/100 for n < 10^4,
// n/10 for n < 100), and no lane's product reaches the next lane.
func put8(d []byte, v uint64) {
	x := v/1e4 | v%1e4<<32
	q := x * 5243 >> 19 & 0x0000007f_0000007f
	x = q | (x-100*q)<<16
	q = x * 103 >> 10 & 0x000f000f_000f000f
	x = q | (x-10*q)<<8
	binary.LittleEndian.PutUint64(d, x|0x30303030_30303030)
}

// zeros pads an 'f' form: at most 5 zeros lead a number at or above
// 1e-6, and at most 20 trail one below 1e21.
const zeros = "00000000000000000000"

// Ryu's 128-bit multipliers, with the bit counts of its reference
// implementation (d2s.c): pow5Split[i] is 5^i scaled to exactly
// pow5Bits bits (truncated when longer), and pow5InvSplit[q] is
// ⌊2^(len(5^q)-1+pow5Bits) / 5^q⌋ + 1. Each is stored as {low, high}
// 64-bit words. Only the exponents of the 'f' range are built: the
// table holds what ryuShortest indexes for a normal float64 in
// [1e-6, 1e21).
const pow5Bits = 125

var pow5Split, pow5InvSplit [][2]uint64

func init() {
	// ryuShortest's binary exponent e2 ranges over those of the 'f'
	// range's ends: for x = frac×2^exp (Frexp), e2 = exp-1-52-2.
	_, lo := math.Frexp(1e-6)
	_, hi := math.Frexp(1e21)
	maxQ, maxI := 0, 0
	for e2 := lo - 1 - 52 - 2; e2 <= hi-1-52-2; e2++ {
		if q := ryuQ(e2); e2 >= 0 {
			maxQ = max(maxQ, q)
		} else {
			maxI = max(maxI, -e2-q)
		}
	}
	word := func(x *big.Int) [2]uint64 {
		var w [2]uint64
		w[0] = new(big.Int).And(x, new(big.Int).SetUint64(math.MaxUint64)).Uint64()
		w[1] = new(big.Int).Rsh(x, 64).Uint64()
		return w
	}
	five := big.NewInt(5)
	pow5Split = make([][2]uint64, maxI+1)
	for i := range pow5Split {
		p := new(big.Int).Exp(five, big.NewInt(int64(i)), nil)
		if shift := p.BitLen() - pow5Bits; shift > 0 {
			p.Rsh(p, uint(shift))
		} else {
			p.Lsh(p, uint(-shift))
		}
		pow5Split[i] = word(p)
	}
	pow5InvSplit = make([][2]uint64, maxQ+1)
	for q := range pow5InvSplit {
		p := new(big.Int).Exp(five, big.NewInt(int64(q)), nil)
		inv := new(big.Int).Lsh(big.NewInt(1), uint(p.BitLen()-1+pow5Bits))
		inv.Div(inv, p)
		pow5InvSplit[q] = word(inv.Add(inv, big.NewInt(1)))
	}
}

// pow5bits is ⌈log2(5^e)⌉ for 1 <= e <= 3528, and 1 for e = 0.
func pow5bits(e int) int { return (e*1217359)>>19 + 1 }

// log10Pow2 is ⌊log10(2^e)⌋ for 0 <= e <= 1650.
func log10Pow2(e int) int { return (e * 78913) >> 18 }

// log10Pow5 is ⌊log10(5^e)⌋ for 0 <= e <= 2620.
func log10Pow5(e int) int { return (e * 732923) >> 20 }

// ryuQ is the decimal exponent Ryu's step 3 scales the bounds of a
// float with binary exponent e2 by: 10^-q for e2 >= 0, 10^(q-e2) (a
// power of 5 times 2^-e2) below.
func ryuQ(e2 int) int {
	if e2 >= 0 {
		q := log10Pow2(e2)
		if e2 > 3 {
			q--
		}
		return q
	}
	q := log10Pow5(-e2)
	if -e2 > 1 {
		q--
	}
	return q
}

// pow5Factor is the number of times 5 divides v > 0.
func pow5Factor(v uint64) int {
	n := 0
	for v%5 == 0 {
		v /= 5
		n++
	}
	return n
}

// mulShift64 is ⌊m × mul / 2^j⌋ for m < 2^55, 64 < j < 128.
func mulShift64(m uint64, mul [2]uint64, j int) uint64 {
	hi1, lo1 := bits.Mul64(m, mul[1])
	hi0, _ := bits.Mul64(m, mul[0])
	sum, carry := bits.Add64(hi0, lo1, 0)
	hi1 += carry
	return hi1<<(128-j) | sum>>(j-64)
}

// ryuShortest returns the shortest decimal m×10^e that rounds to the
// float64 with bits u, the closest such one to it, a tie going to the
// even m: Ryu's d2d, restricted to the normal floats in [1e-6, 1e21).
// m has no trailing zeros.
func ryuShortest(u uint64) (uint64, int) {
	const mantBits = 52
	mant := u & (1<<mantBits - 1)
	m2 := mant | 1<<mantBits
	e2 := int(u>>mantBits&0x7ff) - 1023 - mantBits - 2
	acceptBounds := m2&1 == 0

	// The rounding interval is (mm, mp)×2^e2 around mv×2^e2, closed when
	// m2 is even. Its lower half is half as wide at a power of two.
	mv := 4 * m2
	mmShift := uint64(1)
	if mant == 0 {
		mmShift = 0
	}

	// Step 3: the three bounds in base 10, vr×10^e10 and so on.
	var vr, vp, vm uint64
	var e10 int
	vmTrailingZeros, vrTrailingZeros := false, false
	q := ryuQ(e2)
	if e2 >= 0 {
		e10 = q
		mul := pow5InvSplit[q]
		j := -e2 + q + pow5Bits + pow5bits(q) - 1
		vr = mulShift64(mv, mul, j)
		vp = mulShift64(mv+2, mul, j)
		vm = mulShift64(mv-1-mmShift, mul, j)
		if q <= 21 {
			// At most one of mv, mp and mm is a multiple of 5.
			switch {
			case mv%5 == 0:
				vrTrailingZeros = pow5Factor(mv) >= q
			case acceptBounds:
				vmTrailingZeros = pow5Factor(mv-1-mmShift) >= q
			case pow5Factor(mv+2) >= q:
				vp--
			}
		}
	} else {
		e10 = q + e2
		i := -e2 - q
		mul := pow5Split[i]
		j := q - (pow5bits(i) - pow5Bits)
		vr = mulShift64(mv, mul, j)
		vp = mulShift64(mv+2, mul, j)
		vm = mulShift64(mv-1-mmShift, mul, j)
		if q <= 1 {
			// mv = 4×m2 has two trailing zero bits, mp one, and mm one
			// exactly when mmShift is 1.
			vrTrailingZeros = true
			if acceptBounds {
				vmTrailingZeros = mmShift == 1
			} else {
				vp--
			}
		} else if q < 63 {
			vrTrailingZeros = mv&(1<<q-1) == 0
		}
	}

	// Step 4: drop digits while the interval still holds a shorter
	// number, then round vr.
	removed := 0
	var out uint64
	if vmTrailingZeros || vrTrailingZeros {
		// The rare general case (~0.7%): track whether the dropped digits
		// are all zeros, for the closed lower bound and the tie to even.
		lastRemoved := uint64(0)
		for vp/10 > vm/10 {
			vmTrailingZeros = vmTrailingZeros && vm%10 == 0
			vrTrailingZeros = vrTrailingZeros && lastRemoved == 0
			lastRemoved = vr % 10
			vr, vp, vm = vr/10, vp/10, vm/10
			removed++
		}
		if vmTrailingZeros {
			for vm%10 == 0 {
				vrTrailingZeros = vrTrailingZeros && lastRemoved == 0
				lastRemoved = vr % 10
				vr, vp, vm = vr/10, vp/10, vm/10
				removed++
			}
		}
		if vrTrailingZeros && lastRemoved == 5 && vr%2 == 0 {
			lastRemoved = 4 // an exact tie rounds to even
		}
		out = vr
		if (vr == vm && (!acceptBounds || !vmTrailingZeros)) || lastRemoved >= 5 {
			out++
		}
	} else {
		roundUp := false
		if vp/100 > vm/100 {
			// Two digits at a time first: most floats drop at least two.
			roundUp = vr%100 >= 50
			vr, vp, vm = vr/100, vp/100, vm/100
			removed += 2
		}
		for vp/10 > vm/10 {
			roundUp = vr%10 >= 5
			vr, vp, vm = vr/10, vp/10, vm/10
			removed++
		}
		out = vr
		if vr == vm || roundUp {
			out++
		}
	}
	// out has no trailing zero: the loops stopped with no multiple of 10
	// in the interval bar vm, and out is vm only when vm ends in a
	// nonzero digit.
	return out, e10 + removed
}
