//! Weighted-average (WA) wirelength model (Hsu, Chang, Balabanov, DAC'11)
//! — the smooth HPWL surrogate of Section II-A.
//!
//! Per net and per axis:
//!
//! ```text
//!   WA_x(e) = Σᵢ xᵢ·e^{xᵢ/γ} / Σᵢ e^{xᵢ/γ}  −  Σᵢ xᵢ·e^{−xᵢ/γ} / Σᵢ e^{−xᵢ/γ}
//! ```
//!
//! γ controls smoothness: WA → HPWL as γ → 0. All exponentials are
//! computed on max-shifted coordinates for numerical stability.

use rdp_db::{Design, NetId, Point};
use rdp_par::{chunk_len, fast_exp, Pool};

/// Fixed accumulator lane width for the 1-D WA kernels. Four independent
/// partial sums give LLVM a clean `f64x4`-shaped reduction (two SSE2
/// registers, one AVX register) while keeping the fold order a pure
/// function of the element count — the same fixed-width-lane policy the
/// chunked pool applies across threads, applied inside one chunk.
/// Changing this constant changes last-bit results and requires a bench
/// re-baseline (DESIGN.md §11).
const LANES: usize = 4;

/// Reusable buffers for WA gradient evaluations. One instance amortizes
/// every allocation of [`WaModel::accumulate_gradient_with`] across
/// Nesterov iterations: `pin_grad` holds one gradient contribution per
/// pin, and `view` is the flat netlist view of the design the scratch
/// last served. The view is bound to that design's
/// [`Design::netlist_id`] when it is built and rebuilt whenever a design
/// with another netlist comes in, so one scratch may serve any number of
/// designs.
#[derive(Debug, Clone, Default)]
pub struct WaScratch {
    /// Per-pin ∂WA/∂pin contributions (net weight folded in).
    pin_grad: Vec<Point>,
    /// Flat netlist view of the bound design.
    view: NetlistView,
}

impl WaScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        WaScratch::default()
    }

    /// Binds the scratch to `design`: rebuilds the view (and re-zeroes
    /// the per-pin buffer) unless it was built from the same netlist.
    fn bind(&mut self, design: &Design) {
        if self.view.netlist != Some(design.netlist_id()) {
            self.view = NetlistView::new(design);
            self.pin_grad.clear();
            self.pin_grad.resize(design.num_pins(), Point::default());
        }
    }
}

/// Flat structure-of-arrays copy of the netlist topology the WA gradient
/// walks every iteration, in place of the per-net `Net` records and
/// their heap-allocated pin lists. Positions are not copied: the kernel
/// reads them from the design as `positions[pin_cell] + offset`.
#[derive(Debug, Clone, Default)]
struct NetlistView {
    /// [`Design::netlist_id`] of the design the view was built from.
    netlist: Option<u64>,
    /// CSR offsets: net `i` owns pins `net_start[i]..net_start[i + 1]`.
    net_start: Vec<u32>,
    /// Owning cell index of every pin (gather source, scatter target).
    pin_cell: Vec<u32>,
    /// Pin offsets from the cell center, x axis.
    off_x: Vec<f64>,
    /// Pin offsets from the cell center, y axis.
    off_y: Vec<f64>,
    /// Net weights.
    weight: Vec<f64>,
    /// Net-chunk boundaries (see [`net_chunk`]) as pin offsets: the
    /// disjoint `pin_grad` windows of the parallel fan-out.
    chunk_pins: Vec<usize>,
}

impl NetlistView {
    /// Builds the view of `design`.
    ///
    /// # Panics
    ///
    /// Panics if the design has 2³² or more pins or cells, or if a net's
    /// pins are not one contiguous ascending id range
    /// (`DesignBuilder::build` creates pins net by net, so every built
    /// design satisfies this).
    fn new(design: &Design) -> Self {
        let (num_pins, num_cells) = (design.num_pins(), design.num_cells());
        assert!(
            u32::try_from(num_pins.max(num_cells)).is_ok(),
            "pin or cell count exceeds u32"
        );
        let mut net_start = Vec::with_capacity(design.num_nets() + 1);
        net_start.push(0u32);
        for net in design.nets() {
            let start = *net_start.last().expect("non-empty") as usize;
            assert!(
                net.pins
                    .iter()
                    .enumerate()
                    .all(|(k, p)| p.index() == start + k),
                "net `{}` pins are not a contiguous id range",
                net.name
            );
            net_start.push((start + net.pins.len()) as u32);
        }

        let num_nets = design.num_nets();
        let chunk = net_chunk(num_nets);
        let chunk_pins = (0..=num_nets.div_ceil(chunk))
            .map(|ci| net_start[(ci * chunk).min(num_nets)] as usize)
            .collect();
        let pins = design.pins();
        NetlistView {
            netlist: Some(design.netlist_id()),
            net_start,
            pin_cell: pins.iter().map(|p| p.cell.index() as u32).collect(),
            off_x: pins.iter().map(|p| p.offset.x).collect(),
            off_y: pins.iter().map(|p| p.offset.y).collect(),
            weight: design.nets().iter().map(|n| n.weight).collect(),
            chunk_pins,
        }
    }
}

/// Nets per chunk: at most 128 chunks, at least 32 nets per chunk, so
/// chunk boundaries (and the partial-sum grouping) depend only on the
/// net count.
fn net_chunk(num_nets: usize) -> usize {
    chunk_len(num_nets, 128, 32)
}

/// The WA wirelength model with a fixed smoothing parameter γ.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WaModel {
    /// Smoothing parameter γ (microns).
    pub gamma: f64,
}

impl WaModel {
    /// Creates a model with the given γ.
    ///
    /// # Panics
    ///
    /// Panics if γ is not positive.
    pub fn new(gamma: f64) -> Self {
        assert!(gamma > 0.0, "gamma must be positive, got {gamma}");
        WaModel { gamma }
    }

    /// Smooth wirelength of one net.
    pub fn net_wirelength(&self, design: &Design, net: NetId) -> f64 {
        let mut coords = Vec::new();
        self.net_wirelength_scratch(design, net, &mut coords)
    }

    /// [`net_wirelength`](WaModel::net_wirelength) with a caller-owned
    /// coordinate buffer (no per-call allocation).
    fn net_wirelength_scratch(&self, design: &Design, net: NetId, coords: &mut Vec<f64>) -> f64 {
        let pins = &design.net(net).pins;
        if pins.len() < 2 {
            return 0.0;
        }
        coords.clear();
        coords.extend(pins.iter().map(|&p| design.pin_position(p).x));
        let wx = wa_1d(coords, self.gamma);
        coords.clear();
        coords.extend(pins.iter().map(|&p| design.pin_position(p).y));
        let wy = wa_1d(coords, self.gamma);
        (wx + wy) * design.net(net).weight
    }

    /// Total smooth wirelength Σₑ WAₑ on [`Pool::global`]. Per-net values
    /// are summed within fixed chunks and the partial sums are folded in
    /// chunk order, so the result is bit-identical for any thread count.
    pub fn wirelength(&self, design: &Design) -> f64 {
        let n = design.num_nets();
        Pool::global()
            .map_chunks_scratch(n, net_chunk(n), Vec::new, |coords, _ci, range| {
                range
                    .map(|ni| self.net_wirelength_scratch(design, NetId::from_index(ni), coords))
                    .sum::<f64>()
            })
            .into_iter()
            .sum()
    }

    /// Accumulates ∂WA/∂(cell position) into `grad` (one entry per cell,
    /// indexed by cell id). `grad` is **not** cleared first.
    ///
    /// # Panics
    ///
    /// Panics if `grad.len() != design.num_cells()`.
    pub fn accumulate_gradient(&self, design: &Design, grad: &mut [Point]) {
        let mut scratch = WaScratch::new();
        self.accumulate_gradient_with(design, grad, &mut scratch);
    }

    /// [`accumulate_gradient`](WaModel::accumulate_gradient) with
    /// reusable scratch.
    ///
    /// The fan-out phase computes every pin's contribution on
    /// [`Pool::global`] (pins of one net are contiguous, so net chunks
    /// map to disjoint windows of the pin buffer); a sequential scatter
    /// then folds the contributions into `grad` in pin order. Because
    /// each pin value is computed independently and the scatter order is
    /// fixed, the result is bit-identical to the serial evaluation for
    /// any thread count.
    ///
    /// Each chunk gathers its pins' coordinates from the flat netlist
    /// view, then runs every net through a kernel picked by degree: the
    /// closed form `wa_grad_2` for two pins, the fixed-size
    /// `wa_grad_fixed` for 3–8 pins, and the lane loop `wa_grad_1d`
    /// beyond. The first two return exactly the bits `wa_grad_1d` would,
    /// so the degree split never changes a result.
    pub fn accumulate_gradient_with(
        &self,
        design: &Design,
        grad: &mut [Point],
        scratch: &mut WaScratch,
    ) {
        assert_eq!(grad.len(), design.num_cells(), "gradient buffer size");
        scratch.bind(design);
        let WaScratch { pin_grad, view } = scratch;
        let num_nets = design.num_nets();
        let chunk = net_chunk(num_nets);
        let positions = design.positions();
        let inv_g = 1.0 / self.gamma;
        Pool::global().for_uneven_chunks_mut(
            pin_grad,
            &view.chunk_pins,
            || (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new()),
            |(xs, ys, ep, en, g), ci, offset, window| {
                // Gather the chunk's pin coordinates in one pass.
                let pins = offset..offset + window.len();
                xs.clear();
                xs.extend(
                    pins.clone()
                        .map(|p| positions[view.pin_cell[p] as usize].x + view.off_x[p]),
                );
                ys.clear();
                ys.extend(pins.map(|p| positions[view.pin_cell[p] as usize].y + view.off_y[p]));

                let net_end = ((ci + 1) * chunk).min(num_nets);
                for ni in ci * chunk..net_end {
                    let s = view.net_start[ni] as usize - offset;
                    let e = view.net_start[ni + 1] as usize - offset;
                    let w = view.weight[ni];
                    match e - s {
                        // Pins of < 2-pin nets keep the zero `bind` wrote.
                        0 | 1 => {}
                        // Two-pin nets dominate real netlists (≈⅔ here);
                        // the register-only closed form skips every buffer.
                        2 => {
                            let (gx0, gx1) = wa_grad_2(xs[s], xs[s + 1], inv_g);
                            let (gy0, gy1) = wa_grad_2(ys[s], ys[s + 1], inv_g);
                            window[s] = Point::new(w * gx0, w * gy0);
                            window[s + 1] = Point::new(w * gx1, w * gy1);
                        }
                        3 => net_grad_fixed::<3>(xs, ys, s, w, inv_g, window),
                        4 => net_grad_fixed::<4>(xs, ys, s, w, inv_g, window),
                        5 => net_grad_fixed::<5>(xs, ys, s, w, inv_g, window),
                        6 => net_grad_fixed::<6>(xs, ys, s, w, inv_g, window),
                        7 => net_grad_fixed::<7>(xs, ys, s, w, inv_g, window),
                        8 => net_grad_fixed::<8>(xs, ys, s, w, inv_g, window),
                        n => {
                            if g.len() < n {
                                ep.resize(n, 0.0);
                                en.resize(n, 0.0);
                                g.resize(n, 0.0);
                            }
                            let (ep, en, g) = (&mut ep[..n], &mut en[..n], &mut g[..n]);
                            wa_grad_1d(&xs[s..e], inv_g, ep, en, g);
                            for (pg, &gx) in window[s..e].iter_mut().zip(g.iter()) {
                                pg.x = w * gx;
                            }
                            wa_grad_1d(&ys[s..e], inv_g, ep, en, g);
                            for (pg, &gy) in window[s..e].iter_mut().zip(g.iter()) {
                                pg.y = w * gy;
                            }
                        }
                    }
                }
            },
        );

        // Sequential deterministic scatter in pin order. Pins of skipped
        // (< 2-pin) nets carry a zeroed contribution, so one flat pass
        // over the pin → cell map replaces the per-net pin-table walk
        // without reordering any non-trivial addition.
        for (pg, &cell) in pin_grad.iter().zip(view.pin_cell.iter()) {
            let g = &mut grad[cell as usize];
            g.x += pg.x;
            g.y += pg.y;
        }
    }
}

/// Gradient of one `N`-pin net whose gathered coordinates start at `s`
/// in `xs`/`ys`, written (weighted) into `out[s..s + N]`.
#[inline]
fn net_grad_fixed<const N: usize>(
    xs: &[f64],
    ys: &[f64],
    s: usize,
    w: f64,
    inv_g: f64,
    out: &mut [Point],
) {
    let x: &[f64; N] = xs[s..s + N].try_into().expect("N coordinates");
    let y: &[f64; N] = ys[s..s + N].try_into().expect("N coordinates");
    let gx = wa_grad_fixed(x, inv_g);
    let gy = wa_grad_fixed(y, inv_g);
    for (k, pg) in out[s..s + N].iter_mut().enumerate() {
        *pg = Point::new(w * gx[k], w * gy[k]);
    }
}

/// Max-shift bounds of `v` with [`LANES`] independent lanes. `max`/`min`
/// are order-insensitive, but the lane structure is kept identical to
/// the sum kernels so every 1-D pass walks memory the same way.
fn minmax_1d(v: &[f64]) -> (f64, f64) {
    let mut hi = [f64::NEG_INFINITY; LANES];
    let mut lo = [f64::INFINITY; LANES];
    let mut chunks = v.chunks_exact(LANES);
    for c in &mut chunks {
        for l in 0..LANES {
            hi[l] = hi[l].max(c[l]);
            lo[l] = lo[l].min(c[l]);
        }
    }
    for (l, &x) in chunks.remainder().iter().enumerate() {
        hi[l] = hi[l].max(x);
        lo[l] = lo[l].min(x);
    }
    (
        (hi[0].max(hi[1])).max(hi[2].max(hi[3])),
        (lo[0].min(lo[1])).min(lo[2].min(lo[3])),
    )
}

/// One-dimensional WA value, max-shifted for stability. Lane-chunked:
/// four fixed-width partial accumulators folded in a fixed pairwise
/// order, then the scalar remainder — the operation sequence depends
/// only on `v.len()`, so the kernel is trivially thread-count invariant
/// and autovectorizes (the exponential is the branch-free
/// [`fast_exp`]).
fn wa_1d(v: &[f64], gamma: f64) -> f64 {
    let (hi, lo) = minmax_1d(v);
    let inv_g = 1.0 / gamma;
    let (mut sp, mut ap) = ([0.0f64; LANES], [0.0f64; LANES]);
    let (mut sn, mut an) = ([0.0f64; LANES], [0.0f64; LANES]);
    let mut chunks = v.chunks_exact(LANES);
    for c in &mut chunks {
        for l in 0..LANES {
            let x = c[l];
            let ep = fast_exp((x - hi) * inv_g);
            let en = fast_exp((lo - x) * inv_g);
            sp[l] += ep;
            ap[l] += x * ep;
            sn[l] += en;
            an[l] += x * en;
        }
    }
    for (l, &x) in chunks.remainder().iter().enumerate() {
        let ep = fast_exp((x - hi) * inv_g);
        let en = fast_exp((lo - x) * inv_g);
        sp[l] += ep;
        ap[l] += x * ep;
        sn[l] += en;
        an[l] += x * en;
    }
    let sp = (sp[0] + sp[1]) + (sp[2] + sp[3]);
    let ap = (ap[0] + ap[1]) + (ap[2] + ap[3]);
    let sn = (sn[0] + sn[1]) + (sn[2] + sn[3]);
    let an = (an[0] + an[1]) + (an[2] + an[3]);
    ap / sp - an / sn
}

/// One-dimensional WA gradient: out[i] = ∂WA/∂v[i], with `inv_g = 1/γ`.
///
/// The exponentials are computed **once** into the caller's `ep`/`en`
/// slices, one entry per element (the scalar reference recomputed them
/// in the output pass — exp is the dominant cost of the whole GP step),
/// the four sums use the same fixed-lane accumulators as [`wa_1d`], and
/// the output pass is the hoisted two-coefficient form
///
/// ```text
///   out[i] = ep[i]·(a0 + a1·v[i]) − en[i]·(b0 − b1·v[i])
///   a0 = 1/sp − ap/(γ·sp²)   a1 = 1/(γ·sp)
///   b0 = 1/sn + an/(γ·sn²)   b1 = 1/(γ·sn)
/// ```
///
/// which is algebraically identical to the reference formula but
/// division-free per element, so the pass vectorizes cleanly.
fn wa_grad_1d(v: &[f64], inv_g: f64, ep: &mut [f64], en: &mut [f64], out: &mut [f64]) {
    let (hi, lo) = minmax_1d(v);
    for ((p, n), &x) in ep.iter_mut().zip(en.iter_mut()).zip(v) {
        *p = fast_exp((x - hi) * inv_g);
        *n = fast_exp((lo - x) * inv_g);
    }

    let (mut sp, mut ap) = ([0.0f64; LANES], [0.0f64; LANES]);
    let (mut sn, mut an) = ([0.0f64; LANES], [0.0f64; LANES]);
    let mut i = 0;
    while i + LANES <= v.len() {
        for l in 0..LANES {
            let x = v[i + l];
            sp[l] += ep[i + l];
            ap[l] += x * ep[i + l];
            sn[l] += en[i + l];
            an[l] += x * en[i + l];
        }
        i += LANES;
    }
    let mut l = 0;
    while i < v.len() {
        let x = v[i];
        sp[l] += ep[i];
        ap[l] += x * ep[i];
        sn[l] += en[i];
        an[l] += x * en[i];
        i += 1;
        l += 1;
    }
    let sp = (sp[0] + sp[1]) + (sp[2] + sp[3]);
    let ap = (ap[0] + ap[1]) + (ap[2] + ap[3]);
    let sn = (sn[0] + sn[1]) + (sn[2] + sn[3]);
    let an = (an[0] + an[1]) + (an[2] + an[3]);

    let inv_sp = 1.0 / sp;
    let inv_sn = 1.0 / sn;
    let a1 = inv_g * inv_sp;
    let a0 = inv_sp - ap * a1 * inv_sp;
    let b1 = inv_g * inv_sn;
    let b0 = inv_sn + an * b1 * inv_sn;
    for (i, &x) in v.iter().enumerate() {
        out[i] = ep[i] * (a0 + a1 * x) - en[i] * (b0 - b1 * x);
    }
}

/// [`wa_grad_1d`] for exactly `N` elements, on arrays: with `N` a
/// constant every loop unrolls fully and the exponentials stay in
/// registers, which removes the per-net loop and buffer overhead that
/// dominates small nets. Element `i` accumulates into lane `i % LANES`,
/// in ascending order, and the lanes fold as `(l0 + l1) + (l2 + l3)` —
/// the chunked lane loop's operation sequence (its remainder elements
/// also land in lane `i % LANES`) — and every other expression is
/// copied verbatim, so both kernels return the same bits.
#[inline(always)]
fn wa_grad_fixed<const N: usize>(v: &[f64; N], inv_g: f64) -> [f64; N] {
    let mut hi = [f64::NEG_INFINITY; LANES];
    let mut lo = [f64::INFINITY; LANES];
    for (i, &x) in v.iter().enumerate() {
        hi[i % LANES] = hi[i % LANES].max(x);
        lo[i % LANES] = lo[i % LANES].min(x);
    }
    let hi = (hi[0].max(hi[1])).max(hi[2].max(hi[3]));
    let lo = (lo[0].min(lo[1])).min(lo[2].min(lo[3]));
    let ep: [f64; N] = std::array::from_fn(|i| fast_exp((v[i] - hi) * inv_g));
    let en: [f64; N] = std::array::from_fn(|i| fast_exp((lo - v[i]) * inv_g));

    let (mut sp, mut ap) = ([0.0f64; LANES], [0.0f64; LANES]);
    let (mut sn, mut an) = ([0.0f64; LANES], [0.0f64; LANES]);
    for (i, &x) in v.iter().enumerate() {
        let l = i % LANES;
        sp[l] += ep[i];
        ap[l] += x * ep[i];
        sn[l] += en[i];
        an[l] += x * en[i];
    }
    let sp = (sp[0] + sp[1]) + (sp[2] + sp[3]);
    let ap = (ap[0] + ap[1]) + (ap[2] + ap[3]);
    let sn = (sn[0] + sn[1]) + (sn[2] + sn[3]);
    let an = (an[0] + an[1]) + (an[2] + an[3]);

    let inv_sp = 1.0 / sp;
    let inv_sn = 1.0 / sn;
    let a1 = inv_g * inv_sp;
    let a0 = inv_sp - ap * a1 * inv_sp;
    let b1 = inv_g * inv_sn;
    let b0 = inv_sn + an * b1 * inv_sn;
    std::array::from_fn(|i| ep[i] * (a0 + a1 * v[i]) - en[i] * (b0 - b1 * v[i]))
}

/// Closed-form 1-D WA gradient for a two-pin net (the [`wa_grad_1d`]
/// arithmetic with the buffers and loops evaporated). With the pair
/// ordered, the max-shifted exponent of the larger coordinate is exactly
/// 0 (e⁰ = 1) and the remaining positive/negative exponents coincide, so
/// a **single** `fast_exp` serves all four terms, and `sp = sn` leaves
/// one reciprocal. Two-pin nets are the majority of any real netlist,
/// so this path carries most of the gradient call count.
#[inline]
fn wa_grad_2(x0: f64, x1: f64, inv_g: f64) -> (f64, f64) {
    let swap = x0 < x1;
    let (hi, lo) = if swap { (x1, x0) } else { (x0, x1) };
    let e = fast_exp((lo - hi) * inv_g);
    // sp = 1 + e = sn; ap = hi + lo·e; an = hi·e + lo.
    let s = 1.0 + e;
    let ap = hi + lo * e;
    let an = hi * e + lo;
    let inv_s = 1.0 / s;
    let a1 = inv_g * inv_s;
    let a0 = inv_s - ap * a1 * inv_s;
    let b0 = inv_s + an * a1 * inv_s;
    let g_hi = (a0 + a1 * hi) - e * (b0 - a1 * hi);
    let g_lo = e * (a0 + a1 * lo) - (b0 - a1 * lo);
    if swap {
        (g_lo, g_hi)
    } else {
        (g_hi, g_lo)
    }
}

/// Scalar pre-vectorization reference kernels, kept for two reasons:
/// the `wa_*_scalar_ref` benches in `crates/bench` record the
/// before/after speedup trajectory in `BENCH_kernels.json`, and the
/// unit tests cross-check the lane kernels against them (the two differ
/// only by summation order and the ≈2-ulp [`fast_exp`], so agreement is
/// tight).
pub mod reference {
    /// Scalar 1-D WA value (libm `exp`, single accumulator).
    pub fn wa_1d(v: &[f64], gamma: f64) -> f64 {
        let hi = v.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let lo = v.iter().cloned().fold(f64::INFINITY, f64::min);
        let (mut sp, mut ap, mut sn, mut an) = (0.0, 0.0, 0.0, 0.0);
        for &x in v {
            let ep = ((x - hi) / gamma).exp();
            let en = ((lo - x) / gamma).exp();
            sp += ep;
            ap += x * ep;
            sn += en;
            an += x * en;
        }
        ap / sp - an / sn
    }

    /// Scalar 1-D WA gradient (libm `exp` recomputed in the output pass).
    pub fn wa_grad_1d(v: &[f64], gamma: f64, out: &mut [f64]) {
        let hi = v.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let lo = v.iter().cloned().fold(f64::INFINITY, f64::min);
        let (mut sp, mut ap, mut sn, mut an) = (0.0, 0.0, 0.0, 0.0);
        for &x in v {
            let ep = ((x - hi) / gamma).exp();
            let en = ((lo - x) / gamma).exp();
            sp += ep;
            ap += x * ep;
            sn += en;
            an += x * en;
        }
        for (i, &x) in v.iter().enumerate() {
            let ep = ((x - hi) / gamma).exp();
            let en = ((lo - x) / gamma).exp();
            // d(ap/sp)/dxi = ep(1 + xi/γ)/sp − ap·ep/(γ·sp²)
            let dmax = ep * (1.0 + x / gamma) / sp - ap * ep / (gamma * sp * sp);
            // d(an/sn)/dxi = en(1 − xi/γ)/sn + an·en/(γ·sn²)
            let dmin = en * (1.0 - x / gamma) / sn + an * en / (gamma * sn * sn);
            out[i] = dmax - dmin;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdp_db::{Cell, DesignBuilder, Rect, RoutingSpec};

    fn two_cell_design(a: Point, b: Point) -> Design {
        let mut db = DesignBuilder::new("w", Rect::new(-100.0, -100.0, 200.0, 200.0));
        let c1 = db.add_cell(Cell::std("a", 1.0, 1.0), a);
        let c2 = db.add_cell(Cell::std("b", 1.0, 1.0), b);
        db.add_net("n", vec![(c1, Point::default()), (c2, Point::default())]);
        db.routing(RoutingSpec::uniform(2, 1.0, 4, 4));
        db.build().unwrap()
    }

    #[test]
    fn wa_lower_bounds_hpwl_and_converges() {
        let d = two_cell_design(Point::new(0.0, 0.0), Point::new(10.0, 7.0));
        let hpwl = d.hpwl();
        for gamma in [4.0, 1.0, 0.25, 0.05] {
            let wa = WaModel::new(gamma).wirelength(&d);
            assert!(wa <= hpwl + 1e-9, "gamma={gamma}: wa {wa} > hpwl {hpwl}");
        }
        // Tight for small gamma.
        let wa = WaModel::new(0.05).wirelength(&d);
        assert!((wa - hpwl).abs() < 0.5, "wa {wa} vs hpwl {hpwl}");
    }

    #[test]
    fn wa_zero_for_coincident_pins() {
        let d = two_cell_design(Point::new(5.0, 5.0), Point::new(5.0, 5.0));
        let wa = WaModel::new(1.0).wirelength(&d);
        assert!(wa.abs() < 1e-12);
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let mut d = two_cell_design(Point::new(2.0, 3.0), Point::new(11.0, 5.0));
        let model = WaModel::new(1.5);
        let mut grad = vec![Point::default(); d.num_cells()];
        model.accumulate_gradient(&d, &mut grad);

        let h = 1e-6;
        for ci in 0..2 {
            let id = rdp_db::CellId::from_index(ci);
            let p0 = d.pos(id);
            d.set_pos(id, Point::new(p0.x + h, p0.y));
            let fp = model.wirelength(&d);
            d.set_pos(id, Point::new(p0.x - h, p0.y));
            let fm = model.wirelength(&d);
            d.set_pos(id, p0);
            let fd = (fp - fm) / (2.0 * h);
            assert!(
                (grad[ci].x - fd).abs() < 1e-6,
                "cell {ci}: analytic {} vs fd {fd}",
                grad[ci].x
            );

            d.set_pos(id, Point::new(p0.x, p0.y + h));
            let fp = model.wirelength(&d);
            d.set_pos(id, Point::new(p0.x, p0.y - h));
            let fm = model.wirelength(&d);
            d.set_pos(id, p0);
            let fd = (fp - fm) / (2.0 * h);
            assert!(
                (grad[ci].y - fd).abs() < 1e-6,
                "cell {ci}: analytic {} vs fd {fd}",
                grad[ci].y
            );
        }
    }

    #[test]
    fn gradient_pulls_pins_together() {
        let d = two_cell_design(Point::new(0.0, 0.0), Point::new(10.0, 0.0));
        let mut grad = vec![Point::default(); 2];
        WaModel::new(1.0).accumulate_gradient(&d, &mut grad);
        // Descent direction −grad moves the left cell right and the right
        // cell left.
        assert!(grad[0].x < 0.0);
        assert!(grad[1].x > 0.0);
        assert!(grad[0].y.abs() < 1e-12);
    }

    #[test]
    fn multi_pin_gradient_consistent() {
        let mut db = DesignBuilder::new("w", Rect::new(0.0, 0.0, 100.0, 100.0));
        let ids: Vec<_> = (0..5)
            .map(|i| {
                db.add_cell(
                    Cell::std(format!("c{i}"), 1.0, 1.0),
                    Point::new(10.0 * i as f64, (i * i) as f64),
                )
            })
            .collect();
        db.add_net(
            "n",
            ids.iter().map(|&c| (c, Point::new(0.3, -0.2))).collect(),
        );
        db.routing(RoutingSpec::uniform(2, 1.0, 4, 4));
        let mut d = db.build().unwrap();
        let model = WaModel::new(2.0);
        let mut grad = vec![Point::default(); d.num_cells()];
        model.accumulate_gradient(&d, &mut grad);
        let h = 1e-6;
        for ci in 0..5 {
            let id = rdp_db::CellId::from_index(ci);
            let p0 = d.pos(id);
            d.set_pos(id, Point::new(p0.x + h, p0.y));
            let fp = model.wirelength(&d);
            d.set_pos(id, Point::new(p0.x - h, p0.y));
            let fm = model.wirelength(&d);
            d.set_pos(id, p0);
            let fd = (fp - fm) / (2.0 * h);
            assert!(
                (grad[ci].x - fd).abs() < 1e-5,
                "cell {ci}: analytic {} vs fd {fd}",
                grad[ci].x
            );
        }
    }

    #[test]
    fn weighted_net_scales_value_and_gradient() {
        let mut db = DesignBuilder::new("w", Rect::new(0.0, 0.0, 100.0, 100.0));
        let a = db.add_cell(Cell::std("a", 1.0, 1.0), Point::new(0.0, 0.0));
        let b = db.add_cell(Cell::std("b", 1.0, 1.0), Point::new(10.0, 0.0));
        db.add_weighted_net("n", 3.0, vec![(a, Point::default()), (b, Point::default())]);
        db.routing(RoutingSpec::uniform(2, 1.0, 4, 4));
        let d = db.build().unwrap();
        let m = WaModel::new(1.0);
        let base = wa_1d(&[0.0, 10.0], 1.0);
        assert!((m.wirelength(&d) - 3.0 * base).abs() < 1e-12);
        let mut grad = vec![Point::default(); 2];
        m.accumulate_gradient(&d, &mut grad);
        let d1 = two_cell_design(Point::new(0.0, 0.0), Point::new(10.0, 0.0));
        let mut g1 = vec![Point::default(); 2];
        m.accumulate_gradient(&d1, &mut g1);
        assert!((grad[0].x - 3.0 * g1[0].x).abs() < 1e-12);
    }

    /// The per-net gradient path the flat kernels replaced, kept as the
    /// bitwise oracle: gather every net through `Design::pin_position`,
    /// run [`wa_grad_1d`] per axis, then scatter in pin order.
    fn per_net_oracle(design: &Design, gamma: f64, grad: &mut [Point]) {
        let inv_g = 1.0 / gamma;
        let mut pin_grad = vec![Point::default(); design.num_pins()];
        for net in design.nets() {
            let n = net.pins.len();
            if n < 2 {
                continue;
            }
            let xs: Vec<f64> = net.pins.iter().map(|&p| design.pin_position(p).x).collect();
            let ys: Vec<f64> = net.pins.iter().map(|&p| design.pin_position(p).y).collect();
            let (mut ep, mut en) = (vec![0.0; n], vec![0.0; n]);
            let (mut gx, mut gy) = (vec![0.0; n], vec![0.0; n]);
            wa_grad_1d(&xs, inv_g, &mut ep, &mut en, &mut gx);
            wa_grad_1d(&ys, inv_g, &mut ep, &mut en, &mut gy);
            for (k, &p) in net.pins.iter().enumerate() {
                pin_grad[p.index()] = Point::new(net.weight * gx[k], net.weight * gy[k]);
            }
        }
        for (pg, pin) in pin_grad.iter().zip(design.pins()) {
            let g = &mut grad[pin.cell.index()];
            g.x += pg.x;
            g.y += pg.y;
        }
    }

    /// Asserts that the flat-view gradient equals [`per_net_oracle`] bit
    /// for bit at 1 and 4 threads and γ ∈ {0.05, 2, 50}.
    fn assert_matches_oracle(design: &Design, label: &str) {
        for gamma in [0.05, 2.0, 50.0] {
            let mut want = vec![Point::default(); design.num_cells()];
            per_net_oracle(design, gamma, &mut want);
            for threads in [1, 4] {
                let mut got = vec![Point::default(); design.num_cells()];
                rdp_par::with_local_threads(threads, || {
                    WaModel::new(gamma).accumulate_gradient_with(
                        design,
                        &mut got,
                        &mut WaScratch::new(),
                    )
                });
                for (ci, (g, w)) in got.iter().zip(&want).enumerate() {
                    assert!(
                        g.x.to_bits() == w.x.to_bits() && g.y.to_bits() == w.y.to_bits(),
                        "{label}: γ={gamma} threads={threads} cell {ci}: {g:?} vs oracle {w:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn gradient_matches_per_net_oracle_on_every_scenario_class() {
        use rdp_gen::{scenario_matrix, Scale};
        for scenario in scenario_matrix() {
            let mut d = scenario.build(Scale::Small);
            assert_matches_oracle(&d, scenario.name);
            // Collapse the movable cells into a small box (the center
            // start of every GP session): near-equal coordinates put the
            // exponents near 0.
            let c = d.die().center();
            let movable: Vec<_> = d.movable_cells().collect();
            for (k, &id) in movable.iter().enumerate() {
                let j = ((k * 7919) % 101) as f64 / 101.0 - 0.5;
                d.set_pos(id, Point::new(c.x + j, c.y - 0.5 * j));
            }
            assert_matches_oracle(&d, &format!("{} (collapsed)", scenario.name));
        }
    }

    #[test]
    fn gradient_matches_per_net_oracle_on_every_degree() {
        // One net of each degree 2–12 (the builder rejects nets of
        // fewer than two pins) plus one weighted net, over cells with
        // distinct positions and nonzero pin offsets.
        let mut db = DesignBuilder::new("deg", Rect::new(0.0, 0.0, 100.0, 100.0));
        let cells: Vec<_> = (0..40)
            .map(|i| {
                let p = Point::new(((i * 37) % 97) as f64, ((i * 53) % 89) as f64 + 0.25);
                db.add_cell(Cell::std(format!("c{i}"), 1.0, 1.0), p)
            })
            .collect();
        for degree in 2..=12usize {
            let pins = (0..degree)
                .map(|k| {
                    let c = cells[(degree * 3 + k * 5) % cells.len()];
                    (c, Point::new(0.1 * k as f64 - 0.3, 0.05 * degree as f64))
                })
                .collect();
            db.add_net(format!("n{degree}"), pins);
        }
        db.add_weighted_net(
            "heavy",
            3.5,
            (0..5)
                .map(|k| (cells[k * 7], Point::new(0.2, -0.1)))
                .collect(),
        );
        db.routing(RoutingSpec::uniform(2, 1.0, 4, 4));
        let d = db.build().unwrap();
        assert_matches_oracle(&d, "degree ladder");
    }

    /// One scratch serving two designs with the same pin count but
    /// different pin → cell maps must give each design its own gradient.
    #[test]
    fn scratch_reused_across_designs_with_equal_pin_counts() {
        let build = |name: &str, nets: [[usize; 2]; 2], shift: f64| {
            let mut db = DesignBuilder::new(name, Rect::new(0.0, 0.0, 100.0, 100.0));
            let cells: Vec<_> = (0..4)
                .map(|i| {
                    let p = Point::new(10.0 + 20.0 * i as f64 + shift, 5.0 * (i * i) as f64);
                    db.add_cell(Cell::std(format!("c{i}"), 1.0, 1.0), p)
                })
                .collect();
            for (k, net) in nets.iter().enumerate() {
                let pins = net.iter().map(|&c| (cells[c], Point::default())).collect();
                db.add_net(format!("n{k}"), pins);
            }
            db.routing(RoutingSpec::uniform(2, 1.0, 4, 4));
            db.build().unwrap()
        };
        let a = build("a", [[0, 1], [2, 3]], 0.0);
        let b = build("b", [[0, 2], [3, 1]], 3.0);
        assert_eq!(a.num_pins(), b.num_pins());

        let wa = WaModel::new(2.0);
        let mut shared = WaScratch::new();
        for d in [&a, &b, &a] {
            let mut got = vec![Point::default(); d.num_cells()];
            let mut want = vec![Point::default(); d.num_cells()];
            rdp_par::with_local_threads(1, || {
                wa.accumulate_gradient_with(d, &mut got, &mut shared);
                wa.accumulate_gradient_with(d, &mut want, &mut WaScratch::new());
            });
            assert_eq!(got, want, "design `{}` with a shared scratch", d.name());
        }
    }

    #[test]
    #[should_panic(expected = "gamma must be positive")]
    fn zero_gamma_rejected() {
        WaModel::new(0.0);
    }

    #[test]
    fn lane_kernels_match_scalar_reference() {
        // The lane kernels differ from the scalar reference only by
        // summation order and the ≈2-ulp fast_exp, so values agree to
        // ~1e-13 relative across awkward lengths (remainder lanes).
        for n in [2usize, 3, 4, 5, 7, 8, 13, 64, 129] {
            let v: Vec<f64> = (0..n)
                .map(|i| ((i * 37) % 23) as f64 * 1.7 - 11.0)
                .collect();
            for gamma in [0.25, 1.5, 8.0] {
                let got = wa_1d(&v, gamma);
                let want = reference::wa_1d(&v, gamma);
                assert!(
                    (got - want).abs() <= 1e-12 * (1.0 + want.abs()),
                    "wa_1d n={n} gamma={gamma}: {got} vs {want}"
                );

                let mut out = vec![0.0; n];
                let mut want_out = vec![0.0; n];
                let (mut ep, mut en) = (vec![0.0; n], vec![0.0; n]);
                wa_grad_1d(&v, 1.0 / gamma, &mut ep, &mut en, &mut out);
                reference::wa_grad_1d(&v, gamma, &mut want_out);
                for i in 0..n {
                    assert!(
                        (out[i] - want_out[i]).abs() <= 1e-12,
                        "wa_grad_1d n={n} gamma={gamma} i={i}: {} vs {}",
                        out[i],
                        want_out[i]
                    );
                }
            }
        }
    }
}
