//! Workspace-level integration: the facade's re-exports compose, and every
//! data structure runs correctly under every strategy through the public
//! API.

use std::sync::Arc;

use threepath::abtree::AbTree;
use threepath::bst::Bst;
use threepath::core::{Strategy, TemplateConfig};
use threepath::htm::SplitMix64;
use threepath::hybridnorec::HnBst;
use threepath::kcas::KcasList;
use threepath::rcu::Citrus;

#[test]
fn every_strategy_works_on_both_template_trees() {
    for strategy in Strategy::ALL {
        let bst = Arc::new(Bst::with_config(TemplateConfig {
            strategy,
            ..TemplateConfig::default()
        }));
        let ab = Arc::new(AbTree::with_config(TemplateConfig {
            strategy,
            ..TemplateConfig::default()
        }));
        let mut hb = bst.handle();
        let mut ha = ab.handle();
        let mut rng = SplitMix64::new(strategy as u64 + 1);
        for i in 0..600u64 {
            let k = rng.next_below(100);
            match rng.next_below(4) {
                0 | 1 => {
                    assert_eq!(hb.insert(k, i), ha.insert(k, i), "{strategy} ins {k}");
                }
                2 => {
                    assert_eq!(hb.remove(k), ha.remove(k), "{strategy} rem {k}");
                }
                _ => {
                    assert_eq!(hb.get(k), ha.get(k), "{strategy} get {k}");
                    assert_eq!(
                        hb.range_query(k, k + 10),
                        ha.range_query(k, k + 10),
                        "{strategy} rq {k}"
                    );
                }
            }
        }
        drop((hb, ha));
        assert_eq!(bst.collect(), ab.collect(), "{strategy} final contents");
        bst.validate().unwrap();
        ab.validate().unwrap();
    }
}

#[test]
fn all_five_map_implementations_agree() {
    // BST, (a,b)-tree, CITRUS, k-CAS list and the Hybrid NOrec BST all
    // implement the same map semantics (the k-CAS list uses set-style
    // inserts, handled below).
    let bst = Arc::new(Bst::new());
    let ab = Arc::new(AbTree::new());
    let cit = Arc::new(Citrus::new());
    let list = Arc::new(KcasList::new());
    let hn = Arc::new(HnBst::new());

    let mut hb = bst.handle();
    let mut ha = ab.handle();
    let mut hc = cit.handle();
    let mut hl = list.handle();
    let mut hh = hn.handle();

    let mut rng = SplitMix64::new(99);
    for i in 0..800u64 {
        let k = 1 + rng.next_below(120);
        match rng.next_below(3) {
            0 => {
                let prev = hb.insert(k, i);
                assert_eq!(ha.insert(k, i), prev);
                assert_eq!(hc.insert(k, i), prev);
                assert_eq!(hh.insert(k, i), prev);
                // Set semantics: inserts succeed iff the key was absent.
                assert_eq!(hl.insert(k, i), prev.is_none());
            }
            1 => {
                let prev = hb.remove(k);
                assert_eq!(ha.remove(k), prev);
                assert_eq!(hc.remove(k), prev);
                assert_eq!(hh.remove(k), prev);
                assert_eq!(hl.remove(k).is_some(), prev.is_some());
            }
            _ => {
                let got = hb.get(k);
                assert_eq!(ha.get(k), got);
                assert_eq!(hc.get(k), got);
                assert_eq!(hh.get(k), got);
                assert_eq!(hl.get(k).is_some(), got.is_some());
            }
        }
    }
    drop((hb, ha, hc, hl, hh));
    let keys: Vec<u64> = bst.collect().iter().map(|(k, _)| *k).collect();
    assert_eq!(
        ab.collect().iter().map(|(k, _)| *k).collect::<Vec<_>>(),
        keys
    );
    assert_eq!(
        cit.collect().iter().map(|(k, _)| *k).collect::<Vec<_>>(),
        keys
    );
    assert_eq!(
        list.collect().iter().map(|(k, _)| *k).collect::<Vec<_>>(),
        keys
    );
}

#[test]
fn workload_runner_round_trip_through_facade() {
    use std::time::Duration;
    use threepath::workload::{run_trial, Structure, TrialSpec, Workload};
    for structure in [Structure::Bst, Structure::AbTree] {
        let r = run_trial(&TrialSpec {
            structure,
            strategy: Strategy::ThreePath,
            threads: 3,
            duration: Duration::from_millis(40),
            key_range: 512,
            workload: Workload::Heavy { rq_extent: 128 },
            ..TrialSpec::default()
        });
        assert!(r.keysum_ok);
        assert!(r.update_ops > 0 && r.rq_ops > 0);
    }
}
