//! Property tests for the design-database substrates: geometry
//! primitives and [`Map2d`] invariants (rdp-testkit harness).

use rdp_db::{Map2d, Point, Rect};
use rdp_testkit::{prop_assert, prop_assert_eq, prop_check, range, PropConfig};

fn arb_rect() -> impl rdp_testkit::Gen<Value = (f64, f64, f64, f64)> {
    (
        range(-50.0f64..50.0),
        range(-50.0f64..50.0),
        range(0.0f64..80.0),
        range(0.0f64..80.0),
    )
}

/// Rect accessors are mutually consistent: area = w·h, the center is
/// contained (for non-degenerate rects), and `contains` agrees with
/// `clamp_point` being the identity.
#[test]
fn rect_accessors_consistent() {
    prop_check!(PropConfig::cases(128), arb_rect(), |(x0, y0, w, h): (
        f64,
        f64,
        f64,
        f64
    )| {
        let r = Rect::new(x0, y0, x0 + w, y0 + h);
        prop_assert!((r.width() - w).abs() < 1e-9);
        prop_assert!((r.height() - h).abs() < 1e-9);
        prop_assert!((r.area() - w * h).abs() < 1e-6);
        let c = r.center();
        prop_assert!(r.contains(c));
        let clamped = r.clamp_point(c);
        prop_assert!((clamped.x - c.x).abs() < 1e-12 && (clamped.y - c.y).abs() < 1e-12);
        Ok(())
    });
}

/// `clamp_point` always lands inside the rect and is idempotent.
#[test]
fn rect_clamp_is_idempotent_projection() {
    prop_check!(
        PropConfig::cases(128),
        (arb_rect(), range(-200.0f64..200.0), range(-200.0f64..200.0)),
        |((x0, y0, w, h), px, py): ((f64, f64, f64, f64), f64, f64)| {
            let r = Rect::new(x0, y0, x0 + w, y0 + h);
            let p = r.clamp_point(Point::new(px, py));
            prop_assert!(r.contains(p), "clamped {} outside {}", p, r);
            let q = r.clamp_point(p);
            prop_assert_eq!(p.x, q.x);
            prop_assert_eq!(p.y, q.y);
            // Clamping an inside point is the identity.
            if r.contains(Point::new(px, py)) {
                prop_assert_eq!(p.x, px);
                prop_assert_eq!(p.y, py);
            }
            Ok(())
        }
    );
}

/// Overlap area is symmetric, bounded by each rect's area, and zero iff
/// the rects do not intersect with positive area.
#[test]
fn rect_overlap_symmetry_and_bounds() {
    prop_check!(
        PropConfig::cases(128),
        (arb_rect(), arb_rect()),
        |((ax, ay, aw, ah), (bx, by, bw, bh)): ((f64, f64, f64, f64), (f64, f64, f64, f64))| {
            let a = Rect::new(ax, ay, ax + aw, ay + ah);
            let b = Rect::new(bx, by, bx + bw, by + bh);
            let ab = a.overlap_area(&b);
            let ba = b.overlap_area(&a);
            prop_assert!((ab - ba).abs() < 1e-9, "asymmetric overlap {ab} vs {ba}");
            prop_assert!(ab >= 0.0);
            prop_assert!(ab <= a.area() + 1e-9);
            prop_assert!(ab <= b.area() + 1e-9);
            // Union contains both.
            let u = a.union(&b);
            prop_assert!(u.area() + 1e-9 >= a.area().max(b.area()));
            prop_assert!(u.overlap_area(&a) >= a.area() - 1e-9);
            prop_assert!(u.overlap_area(&b) >= b.area() - 1e-9);
            Ok(())
        }
    );
}

/// Point algebra: distance symmetry, triangle inequality with the
/// origin, and scaling linearity of the norm.
#[test]
fn point_metric_properties() {
    prop_check!(
        PropConfig::cases(128),
        (
            range(-100.0f64..100.0),
            range(-100.0f64..100.0),
            range(-100.0f64..100.0),
            range(-100.0f64..100.0),
            range(-4.0f64..4.0),
        ),
        |(ax, ay, bx, by, s): (f64, f64, f64, f64, f64)| {
            let a = Point::new(ax, ay);
            let b = Point::new(bx, by);
            prop_assert!((a.distance(b) - b.distance(a)).abs() < 1e-9);
            prop_assert!(a.distance(b) <= a.norm() + b.norm() + 1e-9);
            prop_assert!((a.scale(s).norm() - s.abs() * a.norm()).abs() < 1e-6);
            if let Some(n) = a.normalized() {
                prop_assert!((n.norm() - 1.0).abs() < 1e-9);
            }
            Ok(())
        }
    );
}

/// Map2d round-trips its buffer, preserves row-major layout under
/// `iter_coords`, and its scalar reductions agree with direct
/// computation over the buffer.
#[test]
fn map2d_layout_and_reductions() {
    prop_check!(
        PropConfig::cases(128),
        (range(1usize..12), range(1usize..12), range(0u64..1 << 32)),
        |(nx, ny, seed): (usize, usize, u64)| {
            let mut rng = rdp_testkit::Rng::new(seed);
            let data: Vec<f64> = (0..nx * ny)
                .map(|_| rng.gen_range(-10.0f64..10.0))
                .collect();
            let m = Map2d::from_vec(nx, ny, data.clone());
            prop_assert_eq!(m.nx(), nx);
            prop_assert_eq!(m.ny(), ny);
            prop_assert_eq!(m.len(), nx * ny);

            // Row-major identity: (ix, iy) ↔ iy*nx + ix.
            for (ix, iy, &v) in m.iter_coords() {
                prop_assert_eq!(v, data[iy * nx + ix]);
                prop_assert_eq!(v, m[(ix, iy)]);
                prop_assert_eq!(Some(v), m.get(ix, iy).copied());
            }
            // Out-of-bounds access is rejected.
            prop_assert!(m.get(nx, 0).is_none());
            prop_assert!(m.get(0, ny).is_none());

            // Reductions agree with the raw buffer.
            let sum: f64 = data.iter().sum();
            prop_assert!((m.sum() - sum).abs() < 1e-9);
            let max = data.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let min = data.iter().cloned().fold(f64::INFINITY, f64::min);
            prop_assert_eq!(m.max(), max);
            prop_assert_eq!(m.min(), min);
            prop_assert!((m.mean() - sum / (nx * ny) as f64).abs() < 1e-9);
            prop_assert!(m.min() <= m.mean() && m.mean() <= m.max());

            // Round trip.
            prop_assert_eq!(m.clone().into_vec(), data);
            Ok(())
        }
    );
}

/// Map2d arithmetic: add then scale matches element-wise reference;
/// `clear` zeroes.
#[test]
fn map2d_arithmetic_invariants() {
    prop_check!(
        PropConfig::cases(128),
        (
            range(1usize..10),
            range(1usize..10),
            range(-5.0f64..5.0),
            range(0u64..1 << 32),
        ),
        |(nx, ny, s, seed): (usize, usize, f64, u64)| {
            let mut rng = rdp_testkit::Rng::new(seed);
            let a: Vec<f64> = (0..nx * ny)
                .map(|_| rng.gen_range(-10.0f64..10.0))
                .collect();
            let b: Vec<f64> = (0..nx * ny)
                .map(|_| rng.gen_range(-10.0f64..10.0))
                .collect();
            let mut m = Map2d::from_vec(nx, ny, a.clone());
            m.add_assign_map(&Map2d::from_vec(nx, ny, b.clone()));
            m.scale_in_place(s);
            for i in 0..nx * ny {
                let expect = (a[i] + b[i]) * s;
                prop_assert!((m.as_slice()[i] - expect).abs() < 1e-9);
            }
            let mut c = m.clone();
            c.clear();
            prop_assert_eq!(c.sum(), 0.0);
            prop_assert_eq!(c.len(), m.len());
            Ok(())
        }
    );
}
