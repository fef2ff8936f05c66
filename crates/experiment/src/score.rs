//! Unit cases of E2's per-variable warning score,
//! [`score_warnings`](crate::detector_eval::score_warnings): a warning is a
//! true positive when its variable is documented as racy, a documented racy
//! variable with no warning is a miss, and the false-alarm rate E2 prints is
//! `1 − precision`.

mod tests {
    use crate::detector_eval::score_warnings;
    use crate::scoring::ClassScore;
    use mtt_instrument::{AccessKind, Loc, ThreadId, VarId, VarTable};
    use mtt_race::{AccessInfo, RaceWarning};

    fn warn(var: u32) -> RaceWarning {
        let a = AccessInfo {
            thread: ThreadId(0),
            loc: Loc::new("p", 1),
            kind: AccessKind::Write,
        };
        RaceWarning {
            var: VarId(var),
            first: a,
            second: a,
            detector: "t",
            detail: String::new(),
        }
    }

    fn score(vars: &[u32], racy: &[&str]) -> ClassScore {
        let table = VarTable::new(vec!["x".into(), "y".into(), "z".into()]);
        let warnings: Vec<RaceWarning> = vars.iter().map(|&v| warn(v)).collect();
        score_warnings(&warnings, racy, &table)
    }

    #[test]
    fn perfect_detection() {
        let s = score(&[0, 1], &["x", "y"]);
        assert_eq!(s.tp, 2);
        assert_eq!(s.fp, 0);
        assert_eq!(s.fn_, 0);
        assert_eq!(s.precision, 1.0);
        assert_eq!(s.recall, 1.0);
        assert_eq!(1.0 - s.precision, 0.0);
    }

    #[test]
    fn false_alarm_and_miss() {
        // A warning on `z`, which is not racy, and none on the racy `x`.
        let s = score(&[2], &["x"]);
        assert_eq!(s.tp, 0);
        assert_eq!(s.fp, 1);
        assert_eq!(s.fn_, 1);
        assert_eq!(s.precision, 0.0);
        assert_eq!(s.recall, 0.0);
        assert_eq!(1.0 - s.precision, 1.0);
    }

    #[test]
    fn duplicate_warnings_on_one_var_count_once() {
        let s = score(&[0, 0, 0], &["x"]);
        assert_eq!(s.tp, 1);
        assert_eq!(s.fp, 0);
        assert_eq!(s.fn_, 0);
    }

    #[test]
    fn empty_everything_is_vacuously_perfect() {
        let s = score(&[], &[]);
        assert_eq!((s.tp, s.fp, s.fn_, s.tn), (0, 0, 0, None));
        assert_eq!(s.precision, 1.0);
        assert_eq!(s.recall, 1.0);
    }
}
