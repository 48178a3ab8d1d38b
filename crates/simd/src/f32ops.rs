//! Runtime-dispatched `f32` vector operations.
//!
//! These are the convenience entry points used outside the innermost GEMM
//! kernels (normalization layers, attention, reductions). Each call checks
//! the cached CPU-feature flag once and dispatches to the AVX2 backend
//! or the scalar fallback.

use crate::scalar;

/// Dot product of two equal-length `f32` slices.
///
/// # Panics
///
/// Panics if the slices differ in length.
///
/// # Examples
///
/// ```
/// assert_eq!(tmac_simd::f32ops::dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
/// ```
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    #[cfg(target_arch = "x86_64")]
    if crate::avx2::available() {
        // SAFETY: AVX2+FMA support verified by `available()`.
        return unsafe { crate::avx2::dot_f32(a, b) };
    }
    scalar::dot_f32(a, b)
}

/// `y[i] += a * x[i]` for all `i`.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn axpy(y: &mut [f32], a: f32, x: &[f32]) {
    #[cfg(target_arch = "x86_64")]
    if crate::avx2::available() {
        // SAFETY: AVX2+FMA support verified by `available()`.
        unsafe { crate::avx2::axpy_f32(y, a, x) };
        return;
    }
    scalar::axpy_f32(y, a, x);
}

/// Sum of all elements.
pub fn sum(v: &[f32]) -> f32 {
    #[cfg(target_arch = "x86_64")]
    if crate::avx2::available() {
        // SAFETY: AVX2 support verified by `available()`.
        return unsafe { crate::avx2::sum_f32(v) };
    }
    scalar::sum_f32(v)
}

/// Maximum absolute value (0.0 for an empty slice).
pub fn max_abs(v: &[f32]) -> f32 {
    #[cfg(target_arch = "x86_64")]
    if crate::avx2::available() {
        // SAFETY: AVX2 support verified by `available()`.
        return unsafe { crate::avx2::max_abs_f32(v) };
    }
    scalar::max_abs_f32(v)
}

/// `y[i] += x[i]` for all `i` (residual adds). Bit-identical across the
/// SIMD and scalar paths (plain adds, no reassociation).
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn add(y: &mut [f32], x: &[f32]) {
    #[cfg(target_arch = "x86_64")]
    if crate::avx2::available() {
        // SAFETY: AVX2 support verified by `available()`.
        unsafe { crate::avx2::add_f32(y, x) };
        return;
    }
    scalar::add_f32(y, x);
}

/// Elementwise product `out[i] = a[i] * b[i]`. Bit-identical across paths.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn mul(out: &mut [f32], a: &[f32], b: &[f32]) {
    #[cfg(target_arch = "x86_64")]
    if crate::avx2::available() {
        // SAFETY: AVX2 support verified by `available()`.
        unsafe { crate::avx2::mul_f32(out, a, b) };
        return;
    }
    scalar::mul_f32(out, a, b);
}

/// In-place elementwise product `y[i] *= x[i]`. Bit-identical across paths.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn mul_assign(y: &mut [f32], x: &[f32]) {
    #[cfg(target_arch = "x86_64")]
    if crate::avx2::available() {
        // SAFETY: AVX2 support verified by `available()`.
        unsafe { crate::avx2::mul_assign_f32(y, x) };
        return;
    }
    scalar::mul_assign_f32(y, x);
}

/// Fused normalization apply `out[i] = (x[i] * s) * g[i]` (the RMSNorm
/// inner loop). Bit-identical across paths: both evaluate as two rounded
/// multiplies in that order.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn scaled_mul(out: &mut [f32], x: &[f32], g: &[f32], s: f32) {
    #[cfg(target_arch = "x86_64")]
    if crate::avx2::available() {
        // SAFETY: AVX2 support verified by `available()`.
        unsafe { crate::avx2::scaled_mul_f32(out, x, g, s) };
        return;
    }
    scalar::scaled_mul_f32(out, x, g, s);
}

/// Maximum element (`-inf` for an empty slice; assumes finite inputs —
/// softmax logits). Bit-identical across paths (max never rounds).
pub fn max(v: &[f32]) -> f32 {
    #[cfg(target_arch = "x86_64")]
    if crate::avx2::available() {
        // SAFETY: AVX2 support verified by `available()`.
        return unsafe { crate::avx2::max_f32(v) };
    }
    scalar::max_f32(v)
}

/// Scales every element in place: `v[i] *= s`. Bit-identical across paths.
pub fn scale(v: &mut [f32], s: f32) {
    #[cfg(target_arch = "x86_64")]
    if crate::avx2::available() {
        // SAFETY: AVX2 support verified by `available()`.
        unsafe { crate::avx2::scale_f32(v, s) };
        return;
    }
    scalar::scale_f32(v, s);
}

/// Applies a rotary-embedding rotation to interleaved `(a, b)` pairs from
/// *duplicated-pair* cos/sin tables: `cos_dup` repeats each `cos θ_i` twice
/// and `sin_dup` carries `[-sin θ_i, +sin θ_i]` per pair, so the rotation is
/// three elementwise multiplies/adds with no per-call transcendentals. Bit-
/// identical across the SIMD and scalar paths.
///
/// # Panics
///
/// Panics on length mismatch or an odd vector length.
pub fn rope_apply(v: &mut [f32], cos_dup: &[f32], sin_dup: &[f32]) {
    #[cfg(target_arch = "x86_64")]
    if crate::avx2::available() {
        // SAFETY: AVX2 support verified by `available()`.
        unsafe { crate::avx2::rope_apply_f32(v, cos_dup, sin_dup) };
        return;
    }
    scalar::rope_apply_f32(v, cos_dup, sin_dup);
}

/// Streaming (online) softmax state: the flash-decoding recurrence that
/// turns `softmax(scores) · V` into a single pass over the sequence.
///
/// Feed scores one at a time with [`OnlineSoftmax::push`]; it maintains the
/// running maximum `m` and the running denominator `Σ exp(s_t - m)`, and
/// tells the caller how to fold each new value into an accumulator that it
/// owns: `acc = acc * c + w * x_t`. After the last score, divide the
/// accumulator by [`OnlineSoftmax::denom`]. The result equals the two-pass
/// `softmax` + weighted sum up to floating-point reassociation — the point
/// is that no `seq`-sized score buffer and no second value sweep exist.
///
/// # Examples
///
/// ```
/// use tmac_simd::f32ops::OnlineSoftmax;
///
/// let scores = [0.5f32, 2.0, -1.0, 1.5];
/// let values = [10.0f32, 20.0, 30.0, 40.0];
/// let mut sm = OnlineSoftmax::new();
/// let mut acc = 0.0f32;
/// for (&s, &x) in scores.iter().zip(&values) {
///     let (w, c) = sm.push(s);
///     acc = acc * c + w * x;
/// }
/// let got = acc / sm.denom();
/// // Two-pass reference.
/// let m = 2.0f32;
/// let e: Vec<f32> = scores.iter().map(|s| (s - m).exp()).collect();
/// let want = e.iter().zip(&values).map(|(e, x)| e * x).sum::<f32>() / e.iter().sum::<f32>();
/// assert!((got - want).abs() < 1e-5);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct OnlineSoftmax {
    max: f32,
    denom: f32,
}

impl OnlineSoftmax {
    /// Fresh state: no scores seen.
    pub fn new() -> Self {
        OnlineSoftmax {
            max: f32::NEG_INFINITY,
            denom: 0.0,
        }
    }

    /// Absorbs one score and returns `(w, c)`: the weight for the new
    /// value and the rescale factor for everything accumulated so far
    /// (`acc = acc * c + w * x`).
    ///
    /// Exactly one of the two is non-trivial per step: while the running
    /// maximum stands, `c == 1.0` and `w = exp(s - m)`; when `s` becomes
    /// the new maximum, `w == 1.0` and `c = exp(m_old - s)` shrinks the
    /// history (the first push takes this branch with `c == 0.0`).
    pub fn push(&mut self, s: f32) -> (f32, f32) {
        if s <= self.max {
            let w = (s - self.max).exp();
            self.denom += w;
            (w, 1.0)
        } else {
            let c = (self.max - s).exp();
            self.denom = self.denom * c + 1.0;
            self.max = s;
            (1.0, c)
        }
    }

    /// The running softmax denominator `Σ exp(s_t - m)` (≥ 1 once any
    /// score has been pushed).
    pub fn denom(&self) -> f32 {
        self.denom
    }

    /// The running maximum.
    pub fn max_seen(&self) -> f32 {
        self.max
    }
}

impl Default for OnlineSoftmax {
    fn default() -> Self {
        Self::new()
    }
}

/// Normalized mean squared error between `got` and a `reference`.
///
/// `NMSE = Σ (got - ref)^2 / Σ ref^2`. This is the error metric of the
/// paper's Table 3. Returns 0.0 when the reference is all zeros and the
/// outputs match; `f32::INFINITY` when the reference is all zeros but the
/// outputs differ.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn nmse(got: &[f32], reference: &[f32]) -> f64 {
    assert_eq!(got.len(), reference.len(), "nmse length mismatch");
    let mut num = 0.0f64;
    let mut den = 0.0f64;
    for (&g, &r) in got.iter().zip(reference) {
        let d = (g - r) as f64;
        num += d * d;
        den += (r as f64) * (r as f64);
    }
    if den == 0.0 {
        if num == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dispatched_ops_match_scalar_oracle() {
        let a: Vec<f32> = (0..257).map(|i| ((i * 7) % 13) as f32 - 6.0).collect();
        let b: Vec<f32> = (0..257).map(|i| ((i * 5) % 11) as f32 - 5.0).collect();
        assert!((dot(&a, &b) - crate::scalar::dot_f32(&a, &b)).abs() < 1e-3);
        assert!((sum(&a) - crate::scalar::sum_f32(&a)).abs() < 1e-3);
        assert_eq!(max_abs(&a), crate::scalar::max_abs_f32(&a));
    }

    /// The elementwise ops promise *bit* compatibility between the
    /// dispatched (SIMD) and scalar paths — they are used in paths where
    /// batched and sequential execution must agree exactly.
    #[test]
    fn elementwise_ops_bit_identical_to_scalar() {
        let a: Vec<f32> = (0..133).map(|i| ((i as f32) * 0.37).sin() * 3.7).collect();
        let b: Vec<f32> = (0..133).map(|i| ((i as f32) * 0.61).cos() * 1.9).collect();
        let s = 0.731f32;

        let mut y1 = a.clone();
        let mut y2 = a.clone();
        add(&mut y1, &b);
        crate::scalar::add_f32(&mut y2, &b);
        assert_eq!(y1, y2, "add");

        let mut o1 = vec![0f32; a.len()];
        let mut o2 = vec![0f32; a.len()];
        mul(&mut o1, &a, &b);
        crate::scalar::mul_f32(&mut o2, &a, &b);
        assert_eq!(o1, o2, "mul");

        scaled_mul(&mut o1, &a, &b, s);
        crate::scalar::scaled_mul_f32(&mut o2, &a, &b, s);
        assert_eq!(o1, o2, "scaled_mul");

        let mut m1 = a.clone();
        let mut m2 = a.clone();
        mul_assign(&mut m1, &b);
        crate::scalar::mul_assign_f32(&mut m2, &b);
        assert_eq!(m1, m2, "mul_assign");

        let mut v1 = a.clone();
        let mut v2 = a.clone();
        scale(&mut v1, s);
        crate::scalar::scale_f32(&mut v2, s);
        assert_eq!(v1, v2, "scale");

        assert_eq!(max(&a), crate::scalar::max_f32(&a), "max");
        assert_eq!(max(&[]), f32::NEG_INFINITY);
        assert_eq!(max(&a[..3]), crate::scalar::max_f32(&a[..3]), "short max");
    }

    #[test]
    fn nmse_properties() {
        let r = [1.0f32, -2.0, 3.0];
        assert_eq!(nmse(&r, &r), 0.0);
        let worse = [1.5f32, -2.0, 3.0];
        let better = [1.1f32, -2.0, 3.0];
        assert!(nmse(&worse, &r) > nmse(&better, &r));
        assert_eq!(nmse(&[0.0], &[0.0]), 0.0);
        assert_eq!(nmse(&[1.0], &[0.0]), f64::INFINITY);
    }

    #[test]
    fn online_softmax_matches_two_pass() {
        // A mix of ascending and descending runs exercises both branches.
        let scores: Vec<f32> = (0..47)
            .map(|i| ((i as f32) * 0.83).sin() * 4.0 + ((i as f32) * 0.11).cos())
            .collect();
        let values: Vec<f32> = (0..47).map(|i| ((i as f32) * 0.57).cos() * 3.0).collect();

        let mut sm = OnlineSoftmax::new();
        let mut acc = 0.0f32;
        for (&s, &x) in scores.iter().zip(&values) {
            let (w, c) = sm.push(s);
            acc = acc * c + w * x;
        }
        let got = acc / sm.denom();

        let m = crate::scalar::max_f32(&scores);
        let e: Vec<f32> = scores.iter().map(|s| (s - m).exp()).collect();
        let want = e.iter().zip(&values).map(|(e, x)| e * x).sum::<f32>() / e.iter().sum::<f32>();
        assert!((got - want).abs() < 1e-4, "got {got} want {want}");
        assert_eq!(sm.max_seen(), m);
        assert!(sm.denom() >= 1.0);
    }

    #[test]
    fn online_softmax_first_push_zeroes_history() {
        let mut sm = OnlineSoftmax::new();
        let (w, c) = sm.push(-3.0);
        assert_eq!((w, c), (1.0, 0.0));
        assert_eq!(sm.denom(), 1.0);
    }

    #[test]
    fn rope_apply_matches_legacy_pair_rotation() {
        // rope_apply with duplicated tables must equal the textbook
        // (a cos - b sin, a sin + b cos) rotation bit-for-bit.
        let n = 16;
        let v0: Vec<f32> = (0..n).map(|i| (i as f32) * 0.3 - 2.0).collect();
        let mut cos_dup = vec![0f32; n];
        let mut sin_dup = vec![0f32; n];
        let mut want = v0.clone();
        for i in 0..n / 2 {
            let (s, c) = ((i as f32) * 0.9 + 0.1).sin_cos();
            cos_dup[2 * i] = c;
            cos_dup[2 * i + 1] = c;
            sin_dup[2 * i] = -s;
            sin_dup[2 * i + 1] = s;
            let (a, b) = (want[2 * i], want[2 * i + 1]);
            want[2 * i] = a * c - b * s;
            want[2 * i + 1] = a * s + b * c;
        }
        let mut got = v0;
        rope_apply(&mut got, &cos_dup, &sin_dup);
        assert_eq!(got, want);
    }

    #[test]
    fn scale_in_place() {
        let mut v = vec![1.0f32, -2.0, 0.5];
        scale(&mut v, 2.0);
        assert_eq!(v, vec![2.0, -4.0, 1.0]);
    }
}
