// Package linalg provides the dense numeric kernels the ml package trains
// on: fused dot/axpy primitives with fixed summation order, register-blocked
// GEMM variants for packed row-major matrices, batched softmax/ReLU
// activations, and a sync.Pool-backed scratch-buffer arena.
//
// Every kernel is deterministic: for a given input shape the floating-point
// summation order is fixed by the implementation and never depends on
// GOMAXPROCS, callers' goroutines, or previous calls. That property is what
// lets the ml package run data-parallel training whose results are
// byte-identical to the serial path (the parallel scheme only splits work
// between kernel calls, never inside one).
package linalg

import "math"

// Dot returns the inner product of a and b. b must be at least as long as
// a. The reduction order is fixed per length: the AVX2 kernel (when
// available) runs lane-striped accumulators with a fixed combine tree, the
// portable path four interleaved partial sums combined as
// ((s0+s1)+(s2+s3))+tail. Which path runs depends only on the length and
// the host CPU — never on the caller — so results are deterministic.
func Dot(a, b []float64) float64 {
	n := len(a)
	b = b[:n]
	if simd && n >= 8 {
		var s float64
		dotv(&a[0], &b[0], &s, n)
		return s
	}
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+3 < n; i += 4 {
		s0 += a[i] * b[i]
		s1 += a[i+1] * b[i+1]
		s2 += a[i+2] * b[i+2]
		s3 += a[i+3] * b[i+3]
	}
	s := (s0 + s1) + (s2 + s3)
	for ; i < n; i++ {
		s += a[i] * b[i]
	}
	return s
}

// Axpy computes y += alpha*x elementwise over len(x); y must be at least as
// long as x.
func Axpy(alpha float64, x, y []float64) {
	n := len(x)
	y = y[:n]
	if simd && n >= 8 {
		axpyv(&y[0], &x[0], alpha, n)
		return
	}
	i := 0
	for ; i+3 < n; i += 4 {
		y[i] += alpha * x[i]
		y[i+1] += alpha * x[i+1]
		y[i+2] += alpha * x[i+2]
		y[i+3] += alpha * x[i+3]
	}
	for ; i < n; i++ {
		y[i] += alpha * x[i]
	}
}

// Add computes dst += src elementwise over len(src).
func Add(dst, src []float64) {
	n := len(src)
	dst = dst[:n]
	if simd && n >= 8 {
		addv(&dst[0], &src[0], n)
		return
	}
	i := 0
	for ; i+3 < n; i += 4 {
		dst[i] += src[i]
		dst[i+1] += src[i+1]
		dst[i+2] += src[i+2]
		dst[i+3] += src[i+3]
	}
	for ; i < n; i++ {
		dst[i] += src[i]
	}
}

// Scale computes x *= alpha elementwise.
func Scale(alpha float64, x []float64) {
	for i := range x {
		x[i] *= alpha
	}
}

// Zero clears x.
func Zero(x []float64) {
	for i := range x {
		x[i] = 0
	}
}

// GemmNT computes C += A·Bᵀ for packed row-major matrices: A is m×k, B is
// n×k, C is m×n. This is the inner-product form used for layer forwards
// (activations × weightsᵀ). The kernel is register-blocked 4×4 — four rows
// of A against four rows of B per pass — which reuses each loaded element
// sixteen times; every C element still accumulates its k-products in
// ascending order, so the result is independent of the blocking.
func GemmNT(C, A, B []float64, m, n, k int) {
	if k == 0 {
		return
	}
	if simd && k >= 8 {
		cGemmNTSIMD.Inc()
		gemmNTSIMD(C, A, B, m, n, k)
		return
	}
	cGemmNTPortable.Inc()
	i := 0
	for ; i+3 < m; i += 4 {
		a0 := A[i*k : i*k+k]
		a1 := A[(i+1)*k : (i+1)*k+k]
		a2 := A[(i+2)*k : (i+2)*k+k]
		a3 := A[(i+3)*k : (i+3)*k+k]
		j := 0
		for ; j+3 < n; j += 4 {
			b0 := B[j*k : j*k+k]
			b1 := B[(j+1)*k : (j+1)*k+k]
			b2 := B[(j+2)*k : (j+2)*k+k]
			b3 := B[(j+3)*k : (j+3)*k+k]
			var c00, c01, c02, c03 float64
			var c10, c11, c12, c13 float64
			var c20, c21, c22, c23 float64
			var c30, c31, c32, c33 float64
			for l := 0; l < k; l++ {
				bv0, bv1, bv2, bv3 := b0[l], b1[l], b2[l], b3[l]
				av := a0[l]
				c00 += av * bv0
				c01 += av * bv1
				c02 += av * bv2
				c03 += av * bv3
				av = a1[l]
				c10 += av * bv0
				c11 += av * bv1
				c12 += av * bv2
				c13 += av * bv3
				av = a2[l]
				c20 += av * bv0
				c21 += av * bv1
				c22 += av * bv2
				c23 += av * bv3
				av = a3[l]
				c30 += av * bv0
				c31 += av * bv1
				c32 += av * bv2
				c33 += av * bv3
			}
			C[i*n+j] += c00
			C[i*n+j+1] += c01
			C[i*n+j+2] += c02
			C[i*n+j+3] += c03
			C[(i+1)*n+j] += c10
			C[(i+1)*n+j+1] += c11
			C[(i+1)*n+j+2] += c12
			C[(i+1)*n+j+3] += c13
			C[(i+2)*n+j] += c20
			C[(i+2)*n+j+1] += c21
			C[(i+2)*n+j+2] += c22
			C[(i+2)*n+j+3] += c23
			C[(i+3)*n+j] += c30
			C[(i+3)*n+j+1] += c31
			C[(i+3)*n+j+2] += c32
			C[(i+3)*n+j+3] += c33
		}
		for ; j < n; j++ {
			br := B[j*k : j*k+k]
			C[i*n+j] += Dot(a0, br)
			C[(i+1)*n+j] += Dot(a1, br)
			C[(i+2)*n+j] += Dot(a2, br)
			C[(i+3)*n+j] += Dot(a3, br)
		}
	}
	for ; i < m; i++ {
		ar := A[i*k : i*k+k]
		ci := C[i*n : i*n+n]
		j := 0
		for ; j+3 < n; j += 4 {
			b0 := B[j*k : j*k+k]
			b1 := B[(j+1)*k : (j+1)*k+k]
			b2 := B[(j+2)*k : (j+2)*k+k]
			b3 := B[(j+3)*k : (j+3)*k+k]
			var s0, s1, s2, s3 float64
			for l := 0; l < k; l++ {
				av := ar[l]
				s0 += av * b0[l]
				s1 += av * b1[l]
				s2 += av * b2[l]
				s3 += av * b3[l]
			}
			ci[j] += s0
			ci[j+1] += s1
			ci[j+2] += s2
			ci[j+3] += s3
		}
		for ; j < n; j++ {
			ci[j] += Dot(ar, B[j*k:j*k+k])
		}
	}
}

// GemmNN computes C += A·B for packed row-major matrices: A is m×k, B is
// k×n, C is m×n. Runs in saxpy form with four B rows fused per pass, so
// each C row is loaded and stored once per four k-steps instead of once per
// step; each C element still accumulates in ascending-l order (groups of
// four combined as (a0·b0 + a1·b1) + (a2·b2 + a3·b3)), a fixed order.
// All-zero groups of A coefficients are skipped, which matters for the
// sparse one-hot node features feeding the first GCN layer.
func GemmNN(C, A, B []float64, m, n, k int) {
	if simd && n >= 8 {
		cGemmNNSIMD.Inc()
		gemmNNSIMD(C, A, B, m, n, k)
		return
	}
	cGemmNNPortable.Inc()
	for i := 0; i < m; i++ {
		ci := C[i*n : i*n+n]
		ai := A[i*k : i*k+k]
		l := 0
		for ; l+3 < k; l += 4 {
			a0, a1, a2, a3 := ai[l], ai[l+1], ai[l+2], ai[l+3]
			if a0 == 0 && a1 == 0 && a2 == 0 && a3 == 0 {
				continue
			}
			b0 := B[l*n : l*n+n]
			b1 := B[(l+1)*n : (l+2)*n]
			b2 := B[(l+2)*n : (l+3)*n]
			b3 := B[(l+3)*n : (l+4)*n]
			for j := range ci {
				ci[j] += (a0*b0[j] + a1*b1[j]) + (a2*b2[j] + a3*b3[j])
			}
		}
		for ; l < k; l++ {
			if a := ai[l]; a != 0 {
				Axpy(a, B[l*n:l*n+n], ci)
			}
		}
	}
}

// GemmTN computes C += Aᵀ·B for packed row-major matrices: A is k×m, B is
// k×n, C is m×n. This is the gradient-accumulation form (activationsᵀ ×
// deltas); it runs as rank-1 updates in ascending-l order, fused four at a
// time (combined (a0·b0 + a1·b1) + (a2·b2 + a3·b3) per C element) so each C
// row is loaded once per four updates.
func GemmTN(C, A, B []float64, m, n, k int) {
	if simd && n >= 8 {
		cGemmTNSIMD.Inc()
		gemmTNSIMD(C, A, B, m, n, k)
		return
	}
	cGemmTNPortable.Inc()
	l := 0
	for ; l+3 < k; l += 4 {
		b0 := B[l*n : l*n+n]
		b1 := B[(l+1)*n : (l+2)*n]
		b2 := B[(l+2)*n : (l+3)*n]
		b3 := B[(l+3)*n : (l+4)*n]
		for i := 0; i < m; i++ {
			a0, a1, a2, a3 := A[l*m+i], A[(l+1)*m+i], A[(l+2)*m+i], A[(l+3)*m+i]
			if a0 == 0 && a1 == 0 && a2 == 0 && a3 == 0 {
				continue
			}
			ci := C[i*n : i*n+n]
			for j := range ci {
				ci[j] += (a0*b0[j] + a1*b1[j]) + (a2*b2[j] + a3*b3[j])
			}
		}
	}
	for ; l < k; l++ {
		br := B[l*n : l*n+n]
		for i := 0; i < m; i++ {
			if a := A[l*m+i]; a != 0 {
				Axpy(a, br, C[i*n:i*n+n])
			}
		}
	}
}

// MatVec computes y += A·x for a packed row-major m×k matrix, the
// single-sample inference form.
func MatVec(y, A, x []float64, m, k int) {
	cMatVec.Inc()
	for i := 0; i < m; i++ {
		y[i] += Dot(A[i*k:i*k+k], x)
	}
}

// ReLU clamps x to max(x, 0) elementwise in place. Branchless: on random
// activations a conditional store mispredicts about half the time.
func ReLU(x []float64) {
	for i, v := range x {
		x[i] = max(v, 0)
	}
}

// Softmax converts one row of logits to probabilities in place, with the
// usual max-subtraction for stability.
func Softmax(z []float64) {
	if len(z) == 0 {
		return
	}
	mx := z[0]
	for _, v := range z[1:] {
		if v > mx {
			mx = v
		}
	}
	sum := 0.0
	for i := range z {
		z[i] = math.Exp(z[i] - mx)
		sum += z[i]
	}
	inv := 1 / sum
	for i := range z {
		z[i] *= inv
	}
}

// SoftmaxRows applies Softmax to each of the rows×cols packed rows of z.
func SoftmaxRows(z []float64, rows, cols int) {
	for r := 0; r < rows; r++ {
		Softmax(z[r*cols : (r+1)*cols])
	}
}
