//! Property tests for legalization on arbitrary inputs (rdp-testkit
//! harness).

use rdp_db::{Cell, CellId, Design, DesignBuilder, Point, Rect, RoutingSpec, Row};
use rdp_legal::{check_legality, legalize, legalize_virtual_obs, LegalizeConfig};
use rdp_obs::Collector;
use rdp_testkit::{prop_assert, prop_assert_eq, prop_check, range, select, vecs, PropConfig};

/// Builds a design with `n` cells at arbitrary positions in a fixed
/// 2-row-per-10µm floorplan.
fn design_with(positions: Vec<(f64, f64, f64)>) -> Design {
    let mut b = DesignBuilder::new("p", Rect::new(0.0, 0.0, 60.0, 20.0));
    for r in 0..10 {
        b.add_row(Row {
            y: r as f64 * 2.0,
            height: 2.0,
            x0: 0.0,
            x1: 60.0,
            site_w: 0.2,
        });
    }
    let ids: Vec<CellId> = positions
        .iter()
        .enumerate()
        .map(|(i, &(x, y, w))| b.add_cell(Cell::std(format!("c{i}"), w, 2.0), Point::new(x, y)))
        .collect();
    for pair in ids.chunks(2) {
        if let [a, c] = pair {
            b.add_net(
                format!("n{a}"),
                vec![(*a, Point::default()), (*c, Point::default())],
            );
        }
    }
    b.routing(RoutingSpec::uniform(4, 10.0, 8, 8));
    b.build().unwrap()
}

/// Cells with x/y possibly outside the die and realistic widths.
fn arb_cells() -> impl rdp_testkit::Gen<Value = Vec<(f64, f64, f64)>> {
    vecs(
        (
            range(-5.0f64..65.0), // x, possibly outside the die
            range(-3.0f64..23.0), // y, possibly off-row
            select(vec![0.8, 1.2, 1.6, 2.4]),
        ),
        2..120,
    )
}

/// Any input — including cells far outside the die — legalizes to a
/// clean placement.
#[test]
fn legalize_handles_arbitrary_positions() {
    prop_check!(PropConfig::cases(48), arb_cells(), |cells: Vec<(
        f64,
        f64,
        f64
    )>| {
        let mut d = design_with(cells);
        let report = legalize(&mut d, &LegalizeConfig::default());
        prop_assert_eq!(report.failed, 0);
        let check = check_legality(&d);
        prop_assert!(check.is_legal(), "{:?}", check);
        Ok(())
    });
}

/// Virtual-width legalization is legal for the real widths and keeps
/// at least the virtual spacing between same-row neighbors.
#[test]
fn legalize_virtual_keeps_spacing() {
    prop_check!(
        PropConfig::cases(48),
        (arb_cells(), range(1.0f64..1.4)),
        |(cells, extra): (Vec<(f64, f64, f64)>, f64)| {
            let mut d = design_with(cells);
            let widths: Vec<f64> = d.cells().iter().map(|c| c.w * extra).collect();
            let report = legalize_virtual_obs(
                &mut d,
                &LegalizeConfig::default(),
                &widths,
                &Collector::disabled(),
            );
            prop_assert_eq!(report.failed, 0);
            let check = check_legality(&d);
            prop_assert!(check.is_legal(), "{:?}", check);
            Ok(())
        }
    );
}

/// Re-legalizing an already-legal placement is cheap: the second run
/// stays legal and moves cells far less on average than a typical
/// from-scratch run (individual cells may still hop a row when the
/// crowding heuristic re-balances).
#[test]
fn relegalization_is_cheap() {
    prop_check!(PropConfig::cases(48), arb_cells(), |cells: Vec<(
        f64,
        f64,
        f64
    )>| {
        let mut d = design_with(cells);
        legalize(&mut d, &LegalizeConfig::default());
        let report = legalize(&mut d, &LegalizeConfig::default());
        prop_assert_eq!(report.failed, 0);
        prop_assert!(check_legality(&d).is_legal());
        prop_assert!(
            report.avg_displacement < 2.0,
            "avg displacement {}",
            report.avg_displacement
        );
        Ok(())
    });
}

/// The virtual-width path adds the `failed` count of the report it
/// returns to `legalize_failed`, and the cells its virtual pass could not
/// place to `legalize_virtual_failed`: when the virtual widths fit, when
/// it falls back to the plain pass, and when some cells fit nowhere (ten
/// 60 µm rows hold 80 of the 7 µm cells).
#[test]
fn legalize_virtual_obs_counts_failed_cells() {
    // (cells, width, virtual width, failed, virtual pass failed)
    for (n, w, virtual_w, failed, virtual_failed) in [
        (20, 2.0, 2.4, 0, 0),
        (20, 2.0, 40.0, 0, 10),
        (100, 7.0, 7.0, 20, 20),
    ] {
        let mut d = design_with(vec![(30.0, 10.0, w); n]);
        let obs = Collector::enabled();
        let widths = vec![virtual_w; n];
        let report = legalize_virtual_obs(&mut d, &LegalizeConfig::default(), &widths, &obs);
        let counted = |name: &str| obs.with_metrics(|m| m.counters.get(name).copied());
        assert_eq!(report.failed, failed, "{n} cells of {w} at {virtual_w}");
        assert_eq!(
            counted("legalize_failed"),
            Some(Some(failed as u64)),
            "{n} cells of {w} at {virtual_w}"
        );
        assert_eq!(
            counted("legalize_virtual_failed"),
            Some(Some(virtual_failed)),
            "{n} cells of {w} at {virtual_w}"
        );
    }
}
