package core

import (
	"math"

	"mdm/internal/cellindex"
	"mdm/internal/ewald"
	"mdm/internal/md"
	"mdm/internal/tosifumi"
	"mdm/internal/units"
	"mdm/internal/vec"
)

// The host's real-space potential as a block-staged float64 pipeline. The
// half walk (cellindex.ForEachHalfRun) gathers (r², q_i q_j, species pair) of
// every visited pair into a 64-element block that fills across run and i
// boundaries; a full block then goes through stage loops, each a tight pass
// over the block with independent iterations, so a stage runs at the issue
// width of the host instead of at the latency of one pair's dependent chain
// of erfc, exp and divisions:
//
//	1. r = √r², r⁻² (r⁻¹, r⁻⁶ and r⁻⁸ are products of the two), x = αr/L,
//	   x⁻² and the Born–Mayer argument (σ_i+σ_j−r)/ρ
//	2. erfc(x): the rational R/S of math.Erfc's 1.25 ≤ x < 28 branch and its
//	   two exp arguments; math.Erfc itself outside that range
//	3. exp of the three arguments per pair (expInto)
//	4. accumulate q_i q_j erfc(x)/r, then A b e^(…) − c r⁻⁶ − d r⁻⁸, into one
//	   float64 sum, pairs in walk order
//
// ewald.RealPairEnergyR and tosifumi.ShortEnergy stay the scalar general
// forms. The pipeline adds the same two terms per pair in the same order, so
// it differs from their sum only through terms a few ulp apart (kernels
// within 2 and 4 ulp of math.Exp and math.Erfc, products for quotients).
// x is formed exactly as the scalar form does, (α·r)/L with its division: a
// pre-divided α/L is off by a fixed fraction of an ulp on every pair alike,
// and erfc turns that into a coherent shift of the whole Coulomb sum — 1e-13
// of a total that is itself the small difference of terms a thousand times
// larger (hostpot_test.go).

// potBlockLen is the block length of the potential pipeline.
const potBlockLen = 64

// numPairKinds counts the ordered species pairs a block's pair index spans.
const numPairKinds = tosifumi.NumSpecies * tosifumi.NumSpecies

// potGather holds the per-particle inputs of the potential walk in sorted
// order — one gather per evaluation instead of two Order lookups per pair.
// It belongs to one machine or session (concurrent machines never share
// one) and is sized once, at the first evaluation.
type potGather struct {
	q    []float64 // charge of sorted particle k
	kind []uint8   // species of sorted particle k
}

// fill loads the planes for the layout's current order. Species were range
// checked by the step's real-space sweep.
func (g *potGather) fill(order []int, s *md.System) {
	if len(g.q) != len(order) {
		g.q = make([]float64, len(order))
		g.kind = make([]uint8, len(order))
	}
	for k, o := range order {
		g.q[k] = s.Charge[o]
		g.kind[k] = uint8(s.Type[o])
	}
}

// potBlock is the pipeline's input block: n gathered pairs.
type potBlock struct {
	n    int
	r2   [potBlockLen]float64
	qq   [potBlockLen]float64 // q_i·q_j
	pair [potBlockLen]uint8   // species-pair index, s_i·NumSpecies + s_j
}

// potKernel is the force field resolved for the stage loops.
type potKernel struct {
	alpha, l float64 // x = α·r/L
	sScale   float64 // (L/α)²: x⁻² = r⁻²·sScale
	invRho   float64
	sigma    [numPairKinds]float64 // σ_i + σ_j
	ab       [numPairKinds]float64 // A_ij·b
	c6       [numPairKinds]float64
	d8       [numPairKinds]float64
}

func newPotKernel(p ewald.Params, tf *tosifumi.Potential) potKernel {
	k := potKernel{
		alpha: p.Alpha, l: p.L,
		sScale: (p.L / p.Alpha) * (p.L / p.Alpha),
		invRho: 1 / tf.Rho,
	}
	for i := 0; i < tosifumi.NumSpecies; i++ {
		for j := 0; j < tosifumi.NumSpecies; j++ {
			pr := i*tosifumi.NumSpecies + j
			k.sigma[pr] = tf.Sigma[i] + tf.Sigma[j]
			k.ab[pr] = tf.A[i][j] * tf.B
			k.c6[pr] = tf.C[i][j]
			k.d8[pr] = tf.D[i][j]
		}
	}
	return k
}

// hostPotential evaluates the real-space Coulomb and short-range potential
// energy in float64 on the host — the one real-space potential walk of the
// serial machine and the decomposed session alike. It covers the same
// 27-cell pair set as the MDGRAPE-2 force passes (which apply no r_cut test,
// §2.2), so the potential stays consistent with the forces — the condition
// for energy conservation — but, being the conventional computer, at the
// half count: each unordered (i, j, image) once. True self pairs (r = 0)
// contribute nothing, as in the pipelines. sorted and nbt are the step's
// shared j-set layout and neighbor table; g is the caller's gather planes.
func hostPotential(g *potGather, p ewald.Params, tf *tosifumi.Potential, sorted *cellindex.Sorted, nbt *cellindex.NeighborTable, s *md.System) float64 {
	g.fill(sorted.Order, s)
	kn := newPotKernel(p, tf)
	q, kind := g.q, g.kind
	px, py, pz := sorted.Pos.X, sorted.Pos.Y, sorted.Pos.Z
	var b potBlock
	pot := 0.0
	sorted.ForEachHalfRun(nbt, func(i, js, je int, shift vec.V) {
		xi, yi, zi, qi, ki := px[i], py[i], pz[i], q[i], kind[i]*tosifumi.NumSpecies
		for j := js; j < je; {
			// Fill up to the end of the run or of the block, whichever is
			// nearer; a dropped self image leaves its slot to the next pair.
			end := min(je, j+potBlockLen-b.n)
			n := b.n
			for ; j < end; j++ {
				dx := xi - (px[j] + shift.X)
				dy := yi - (py[j] + shift.Y)
				dz := zi - (pz[j] + shift.Z)
				r2 := dx*dx + dy*dy + dz*dz
				if r2 == 0 {
					continue
				}
				b.r2[n], b.qq[n], b.pair[n] = r2, qi*q[j], ki+kind[j]
				n++
			}
			b.n = n
			if n == potBlockLen {
				pot = kn.drain(&b, pot)
			}
		}
	})
	return kn.drain(&b, pot) // the final partial block
}

// drain runs the block through the stages, adds its pairs to pot in block
// order and empties it.
func (kn *potKernel) drain(b *potBlock, pot float64) float64 {
	n := b.n
	var r, inv2, x, s, erfc, bm [potBlockLen]float64
	for k := 0; k < n; k++ {
		r2 := b.r2[k]
		rk, i2 := math.Sqrt(r2), 1/r2
		r[k], inv2[k] = rk, i2
		x[k], s[k] = kn.alpha*rk/kn.l, i2*kn.sScale
		bm[k] = (kn.sigma[b.pair[k]] - rk) * kn.invRho
	}
	erfcStage(erfc[:n], x[:n], s[:n])
	expInto(bm[:n], bm[:n])
	for k := 0; k < n; k++ {
		i2, pr := inv2[k], b.pair[k]
		i6 := i2 * i2 * i2
		pot += units.Coulomb * b.qq[k] * erfc[k] * (r[k] * i2)
		pot += kn.ab[pr]*bm[k] - kn.c6[pr]*i6 - kn.d8[pr]*(i6*i2)
	}
	b.n = 0
	return pot
}

// Coefficients of math.Erfc's rational approximations on [1.25, 1/0.35) (row
// 0) and [1/0.35, 28) (row 1) — FreeBSD's s_erf.c, as in the Go runtime. The
// second range's polynomials are one degree lower; its rows are padded with a
// zero leading coefficient, which Horner's first step absorbs exactly, so one
// loop evaluates either range with the row selected by index, not by branch.
var (
	erfcR = [2][8]float64{
		{-9.86494403484714822705e-03, -6.93858572707181764372e-01, -1.05586262253232909814e+01, -6.23753324503260060396e+01,
			-1.62396669462573470355e+02, -1.84605092906711035994e+02, -8.12874355063065934246e+01, -9.81432934416914548592e+00},
		{-9.86494292470009928597e-03, -7.99283237680523006574e-01, -1.77579549177547519889e+01, -1.60636384855821916062e+02,
			-6.37566443368389627722e+02, -1.02509513161107724954e+03, -4.83519191608651397019e+02, 0},
	}
	erfcS = [2][8]float64{
		{1.96512716674392571292e+01, 1.37657754143519042600e+02, 4.34565877475229228821e+02, 6.45387271733267880336e+02,
			4.29008140027567833386e+02, 1.08635005541779435134e+02, 6.57024977031928170135e+00, -6.04244152148580987438e-02},
		{3.03380607434824582924e+01, 3.25792512996573918826e+02, 1.53672958608443695994e+03, 3.19985821950859553908e+03,
			2.55305040643316442583e+03, 4.74528541206955367215e+02, -2.24409524465858183362e+01, 0},
	}
)

// erfcStage sets dst[k] = erfc(x[k]) for a block of at most potBlockLen
// elements, given s[k] = x[k]⁻² (the caller has r⁻²; a division here would
// head both Horner chains). For 1.25 ≤ x < 28 it is math.Erfc's own formula,
// exp(−z²−0.5625)·exp((z−x)(z+x) + R/S)/x with z = x truncated to 21 bits,
// the two exponentials taken by expInto; every other x (close approach, far
// image, negative, NaN) takes math.Erfc, so those values are exact.
func erfcStage(dst, x, s []float64) {
	n := len(x)
	var arg [2 * potBlockLen]float64
	for k, xv := range x {
		c := 0
		if xv >= 1/0.35 {
			c = 1
		}
		R, S := &erfcR[c], &erfcS[c]
		sv := s[k]
		num := R[0] + sv*(R[1]+sv*(R[2]+sv*(R[3]+sv*(R[4]+sv*(R[5]+sv*(R[6]+sv*R[7]))))))
		den := 1 + sv*(S[0]+sv*(S[1]+sv*(S[2]+sv*(S[3]+sv*(S[4]+sv*(S[5]+sv*(S[6]+sv*S[7])))))))
		z := math.Float64frombits(math.Float64bits(xv) &^ 0xffffffff)
		arg[k] = -z*z - 0.5625
		arg[n+k] = (z-xv)*(z+xv) + num/den
	}
	expInto(arg[:2*n], arg[:2*n])
	for k, xv := range x {
		if xv >= 1.25 && xv < 28 {
			dst[k] = arg[k] * arg[n+k] / xv
		} else {
			dst[k] = math.Erfc(xv)
		}
	}
}

// exp2Table[i] is 2^(i/128) as a correctly rounded float64 and the remainder
// to the true value, so the table contributes no rounding of its own.
var exp2Table = [128][2]float64{
	{0x1p+00, 0x0p+00}, {0x1.0163da9fb3335p+00, 0x1.b61299ab8cdb7p-54},
	{0x1.02c9a3e778061p+00, -0x1.19083535b085dp-56}, {0x1.04315e86e7f85p+00, -0x1.0a31c1977c96ep-54},
	{0x1.059b0d3158574p+00, 0x1.d73e2a475b465p-55}, {0x1.0706b29ddf6dep+00, -0x1.c91dfe2b13c27p-55},
	{0x1.0874518759bc8p+00, 0x1.186be4bb284ffp-57}, {0x1.09e3ecac6f383p+00, 0x1.1487818316136p-54},
	{0x1.0b5586cf9890fp+00, 0x1.8a62e4adc610bp-54}, {0x1.0cc922b7247f7p+00, 0x1.01edc16e24f71p-54},
	{0x1.0e3ec32d3d1a2p+00, 0x1.03a1727c57b53p-59}, {0x1.0fb66affed31bp+00, -0x1.b9bedc44ebd7bp-57},
	{0x1.11301d0125b51p+00, -0x1.6c51039449b3ap-54}, {0x1.12abdc06c31ccp+00, -0x1.1b514b36ca5c7p-58},
	{0x1.1429aaea92dep+00, -0x1.32fbf9af1369ep-54}, {0x1.15a98c8a58e51p+00, 0x1.2406ab9eeab0ap-55},
	{0x1.172b83c7d517bp+00, -0x1.19041b9d78a76p-55}, {0x1.18af9388c8deap+00, -0x1.11023d1970f6cp-54},
	{0x1.1a35beb6fcb75p+00, 0x1.e5b4c7b4968e4p-55}, {0x1.1bbe084045cd4p+00, -0x1.95386352ef607p-54},
	{0x1.1d4873168b9aap+00, 0x1.e016e00a2643cp-54}, {0x1.1ed5022fcd91dp+00, -0x1.1df98027bb78cp-54},
	{0x1.2063b88628cd6p+00, 0x1.dc775814a8495p-55}, {0x1.21f49917ddc96p+00, 0x1.2a97e9494a5eep-55},
	{0x1.2387a6e756238p+00, 0x1.9b07eb6c70573p-54}, {0x1.251ce4fb2a63fp+00, 0x1.ac155bef4f4a4p-55},
	{0x1.26b4565e27cddp+00, 0x1.2bd339940e9d9p-55}, {0x1.284dfe1f56381p+00, -0x1.a4c3a8c3f0d7ep-54},
	{0x1.29e9df51fdee1p+00, 0x1.612e8afad1255p-55}, {0x1.2b87fd0dad99p+00, -0x1.10adcd6381aa4p-59},
	{0x1.2d285a6e4030bp+00, 0x1.0024754db41d5p-54}, {0x1.2ecafa93e2f56p+00, 0x1.1ca0f45d52383p-56},
	{0x1.306fe0a31b715p+00, 0x1.6f46ad23182e4p-55}, {0x1.32170fc4cd831p+00, 0x1.a9ce78e18047cp-55},
	{0x1.33c08b26416ffp+00, 0x1.32721843659a6p-54}, {0x1.356c55f929ff1p+00, -0x1.b5cee5c4e4628p-55},
	{0x1.371a7373aa9cbp+00, -0x1.63aeabf42eae2p-54}, {0x1.38cae6d05d866p+00, -0x1.e958d3c9904bdp-54},
	{0x1.3a7db34e59ff7p+00, -0x1.5e436d661f5e3p-56}, {0x1.3c32dc313a8e5p+00, -0x1.efff8375d29c3p-54},
	{0x1.3dea64c123422p+00, 0x1.ada0911f09ebcp-55}, {0x1.3fa4504ac801cp+00, -0x1.7d023f956f9f3p-54},
	{0x1.4160a21f72e2ap+00, -0x1.ef3691c309278p-58}, {0x1.431f5d950a897p+00, -0x1.1c7dde35f7999p-55},
	{0x1.44e086061892dp+00, 0x1.89b7a04ef80dp-59}, {0x1.46a41ed1d0057p+00, 0x1.c944bd1648a76p-54},
	{0x1.486a2b5c13cdp+00, 0x1.3c1a3b69062fp-56}, {0x1.4a32af0d7d3dep+00, 0x1.9cb62f3d1be56p-54},
	{0x1.4bfdad5362a27p+00, 0x1.d4397afec42e2p-56}, {0x1.4dcb299fddd0dp+00, 0x1.8ecdbbc6a7833p-54},
	{0x1.4f9b2769d2ca7p+00, -0x1.4b309d25957e3p-54}, {0x1.516daa2cf6642p+00, -0x1.f768569bd93efp-55},
	{0x1.5342b569d4f82p+00, -0x1.07abe1db13cadp-55}, {0x1.551a4ca5d920fp+00, -0x1.d689cefede59bp-55},
	{0x1.56f4736b527dap+00, 0x1.9bb2c011d93adp-54}, {0x1.58d12d497c7fdp+00, 0x1.295e15b9a1de8p-55},
	{0x1.5ab07dd485429p+00, 0x1.6324c054647adp-54}, {0x1.5c9268a5946b7p+00, 0x1.c4b1b816986a2p-60},
	{0x1.5e76f15ad2148p+00, 0x1.ba6f93080e65ep-54}, {0x1.605e1b976dc09p+00, -0x1.3e2429b56de47p-54},
	{0x1.6247eb03a5585p+00, -0x1.383c17e40b497p-54}, {0x1.6434634ccc32p+00, -0x1.c483c759d8933p-55},
	{0x1.6623882552225p+00, -0x1.bb60987591c34p-54}, {0x1.68155d44ca973p+00, 0x1.038ae44f73e65p-57},
	{0x1.6a09e667f3bcdp+00, -0x1.bdd3413b26456p-54}, {0x1.6c012750bdabfp+00, -0x1.2895667ff0b0dp-56},
	{0x1.6dfb23c651a2fp+00, -0x1.bbe3a683c88abp-57}, {0x1.6ff7df9519484p+00, -0x1.83c0f25860ef6p-55},
	{0x1.71f75e8ec5f74p+00, -0x1.16e4786887a99p-55}, {0x1.73f9a48a58174p+00, -0x1.0a8d96c65d53cp-54},
	{0x1.75feb564267c9p+00, -0x1.0245957316dd3p-54}, {0x1.780694fde5d3fp+00, 0x1.866b80a02162dp-54},
	{0x1.7a11473eb0187p+00, -0x1.41577ee04992fp-55}, {0x1.7c1ed0130c132p+00, 0x1.f124cd1164dd6p-54},
	{0x1.7e2f336cf4e62p+00, 0x1.05d02ba15797ep-56}, {0x1.80427543e1a12p+00, -0x1.27c86626d972bp-54},
	{0x1.82589994cce13p+00, -0x1.d4c1dd41532d8p-54}, {0x1.8471a4623c7adp+00, -0x1.8d684a341cdfbp-55},
	{0x1.868d99b4492edp+00, -0x1.fc6f89bd4f6bap-54}, {0x1.88ac7d98a6699p+00, 0x1.994c2f37cb53ap-54},
	{0x1.8ace5422aa0dbp+00, 0x1.6e9f156864b27p-54}, {0x1.8cf3216b5448cp+00, -0x1.0d55e32e9e3aap-56},
	{0x1.8f1ae99157736p+00, 0x1.5cc13a2e3976cp-55}, {0x1.9145b0b91ffc6p+00, -0x1.dd6792e582524p-54},
	{0x1.93737b0cdc5e5p+00, -0x1.75fc781b57ebcp-57}, {0x1.95a44cbc8520fp+00, -0x1.64b7c96a5f039p-56},
	{0x1.97d829fde4e5p+00, -0x1.d185b7c1b85d1p-54}, {0x1.9a0f170ca07bap+00, -0x1.173bd91cee632p-54},
	{0x1.9c49182a3f09p+00, 0x1.c7c46b071f2bep-56}, {0x1.9e86319e32323p+00, 0x1.824ca78e64c6ep-56},
	{0x1.a0c667b5de565p+00, -0x1.359495d1cd533p-54}, {0x1.a309bec4a2d33p+00, 0x1.6305c7ddc36abp-54},
	{0x1.a5503b23e255dp+00, -0x1.d2f6edb8d41e1p-54}, {0x1.a799e1330b358p+00, 0x1.bcb7ecac563c7p-54},
	{0x1.a9e6b5579fdbfp+00, 0x1.0fac90ef7fd31p-54}, {0x1.ac36bbfd3f37ap+00, -0x1.f9234cae76cdp-55},
	{0x1.ae89f995ad3adp+00, 0x1.7a1cd345dcc81p-54}, {0x1.b0e07298db666p+00, -0x1.bdef54c80e425p-54},
	{0x1.b33a2b84f15fbp+00, -0x1.2805e3084d708p-57}, {0x1.b59728de5593ap+00, -0x1.c71dfbbba6de3p-54},
	{0x1.b7f76f2fb5e47p+00, -0x1.5584f7e54ac3bp-56}, {0x1.ba5b030a1064ap+00, -0x1.efcd30e54292ep-54},
	{0x1.bcc1e904bc1d2p+00, 0x1.23dd07a2d9e84p-55}, {0x1.bf2c25bd71e09p+00, -0x1.efdca3f6b9c73p-54},
	{0x1.c199bdd85529cp+00, 0x1.11065895048ddp-55}, {0x1.c40ab5fffd07ap+00, 0x1.b4537e083c60ap-54},
	{0x1.c67f12e57d14bp+00, 0x1.2884dff483cadp-54}, {0x1.c8f6d9406e7b5p+00, 0x1.1acbc48805c44p-56},
	{0x1.cb720dcef9069p+00, 0x1.503cbd1e949dbp-56}, {0x1.cdf0b555dc3fap+00, -0x1.dd83b53829d72p-55},
	{0x1.d072d4a07897cp+00, -0x1.cbc3743797a9cp-54}, {0x1.d2f87080d89f2p+00, -0x1.d487b719d8578p-54},
	{0x1.d5818dcfba487p+00, 0x1.2ed02d75b3707p-55}, {0x1.d80e316c98398p+00, -0x1.11ec18beddfe8p-54},
	{0x1.da9e603db3285p+00, 0x1.c2300696db532p-54}, {0x1.dd321f301b46p+00, 0x1.2da5778f018c3p-54},
	{0x1.dfc97337b9b5fp+00, -0x1.1a5cd4f184b5cp-54}, {0x1.e264614f5a129p+00, -0x1.7b627817a1496p-54},
	{0x1.e502ee78b3ff6p+00, 0x1.39e8980a9cc8fp-55}, {0x1.e7a51fbc74c83p+00, 0x1.2d522ca0c8de2p-54},
	{0x1.ea4afa2a490dap+00, -0x1.e9c23179c2893p-54}, {0x1.ecf482d8e67f1p+00, -0x1.c93f3b411ad8cp-54},
	{0x1.efa1bee615a27p+00, 0x1.dc7f486a4b6bp-54}, {0x1.f252b376bba97p+00, 0x1.3a1a5bf0d8e43p-54},
	{0x1.f50765b6e454p+00, 0x1.9d3e12dd8a18bp-54}, {0x1.f7bfdad9cbe14p+00, -0x1.dbb12d006350ap-54},
	{0x1.fa7c1819e90d8p+00, 0x1.74853f3a5931ep-55}, {0x1.fd3c22b8f71f1p+00, 0x1.2eb74966579e7p-57},
}

// expRange bounds the arguments expInto evaluates itself: inside it e^x is a
// normal float64, so the power-of-two scaling below is exact.
const expRange = 700

// expInto sets dst[k] = e^x[k]; dst may be x. For |x| ≤ expRange it reduces
// x = (128m + j)·ln2/128 + r with |r| ≤ ln2/256 (ln2/128 split in two so the
// reduction is exact to the last bit of r), reads 2^(j/128) and its rounding
// remainder from the table, takes e^r − 1 as a degree-5 polynomial and scales
// by 2^m through the exponent field — pinned within 2 ulp of math.Exp
// (measured: 1) with no call and no branch on the data. Everything else
// (overflow, underflow, ±Inf, NaN) is math.Exp's.
func expInto(dst, x []float64) {
	const (
		perLn2  = 128 / math.Ln2
		ln2Hi   = 6.93147180369123816490e-01 / 128 // math's Ln2Hi: 33 significant bits, m·128+j times it is exact
		ln2Lo   = 1.90821492927058770002e-10 / 128
		shifter = 0x1.8p52 // adding it leaves round(v) in the low mantissa bits
	)
	dst = dst[:len(x)]
	for k, v := range x {
		if !(v >= -expRange && v <= expRange) {
			dst[k] = math.Exp(v)
			continue
		}
		t := v*perLn2 + shifter
		i := int32(math.Float64bits(t)) // 128m + j, two's complement
		f := t - shifter
		r := (v - f*ln2Hi) - f*ln2Lo
		p := r + r*r*(1.0/2+r*(1.0/6+r*(1.0/24+r*(1.0/120))))
		tj := &exp2Table[i&127]
		scale := math.Float64frombits(uint64(int64(i>>7)+1023) << 52)
		dst[k] = (tj[0] + (tj[1] + tj[0]*p)) * scale
	}
}
