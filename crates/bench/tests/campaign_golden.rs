//! Absolute campaign golden: FNV-1a digests of serialized campaign output
//! for one fixed small configuration, pinned in
//! `tests/fixtures/campaign-golden.txt`.
//!
//! The relative identity suites (parallel vs sequential, resume, chaos)
//! compare one run with another, so a refactor that shifts every number
//! the same way passes all of them. This test compares against committed
//! bytes instead. Each case has a stable id; the configuration is
//! nimbus-2000 × wren, the first 12 faults of `Scanner::standard()`, a
//! 250 ms interval and the default seed.
//!
//! On a mismatch the test prints every computed digest in the fixture's
//! own format. After an *intentional* result change, review the drift,
//! paste the printed block over the fixture and commit it.

use depbench::{
    aggregate_metrics, Campaign, CampaignConfig, DependabilityMetrics, IntervalConfig,
    SlotWatchdogConfig,
};
use simkit::SimDuration;
use simos::{Edition, Os};
use std::time::Duration;
use swfit_core::{Faultload, Scanner};
use webserver::ServerKind;

const FAULTS: usize = 12;

fn fixture_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/campaign-golden.txt")
}

fn campaign(parallelism: usize, watched: bool) -> Campaign {
    let config = CampaignConfig::builder()
        .interval(IntervalConfig {
            duration: SimDuration::from_millis(250),
            ..IntervalConfig::default()
        })
        .parallelism(parallelism)
        .build();
    let campaign = Campaign::new(Edition::Nimbus2000, ServerKind::Wren, config);
    if watched {
        campaign.with_watchdog(SlotWatchdogConfig::fixed(Duration::from_secs(60)))
    } else {
        campaign
    }
}

fn faultload() -> Faultload {
    let os = Os::boot(Edition::Nimbus2000).expect("boots");
    let mut fl = Scanner::standard().scan_image(os.program().image());
    fl.faults.truncate(FAULTS);
    fl
}

fn digest<T: serde::Serialize>(value: &T) -> u64 {
    let json = serde_json::to_string(value).expect("serializes");
    simkit::hash::fnv1a(json.as_bytes())
}

/// Every pinned case as `(id, digest)`, in fixture order.
fn computed() -> Vec<(String, u64)> {
    let fl = faultload();
    let mut cases = Vec::new();
    for watched in [false, true] {
        for parallelism in [1, 2] {
            let tag = if watched { "watched" } else { "unwatched" };
            let result = campaign(parallelism, watched)
                .run_injection(&fl, 0)
                .expect("campaign runs");
            cases.push((format!("campaign-j{parallelism}-{tag}"), digest(&result)));
        }
    }
    for parallelism in [1, 2] {
        let c = campaign(parallelism, false);
        let baseline = c.run_baseline(0).expect("baseline runs");
        cases.push((format!("baseline-j{parallelism}"), digest(&baseline)));
        let profile = c.run_profile_mode(0).expect("profile mode runs");
        cases.push((format!("profile-mode-j{parallelism}"), digest(&profile)));
    }
    let c = campaign(2, false);
    let per_iteration: Vec<DependabilityMetrics> = (0..2)
        .map(|iteration| {
            let baseline = c.run_baseline(iteration).expect("baseline runs");
            let result = c.run_injection(&fl, iteration).expect("campaign runs");
            DependabilityMetrics::from_runs(&baseline, &result)
        })
        .collect();
    let summary = aggregate_metrics(&per_iteration).expect("two iterations");
    cases.push(("aggregate-2-iterations".to_string(), digest(&summary)));
    cases
}

fn render(cases: &[(String, u64)]) -> String {
    cases
        .iter()
        .map(|(id, hash)| format!("{id} {hash:#018x}\n"))
        .collect()
}

#[test]
fn campaign_output_matches_the_committed_digests() {
    let fixture = std::fs::read_to_string(fixture_path()).expect("fixture readable");
    let pinned: Vec<(String, u64)> = fixture
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|l| {
            let (id, hex) = l.split_once(' ').expect("`<id> <digest>` line");
            let hash =
                u64::from_str_radix(hex.trim().trim_start_matches("0x"), 16).expect("hex digest");
            (id.to_string(), hash)
        })
        .collect();
    let got = computed();
    let drifted: Vec<&str> = got
        .iter()
        .filter(|case| !pinned.contains(case))
        .map(|(id, _)| id.as_str())
        .collect();
    let missing: Vec<&str> = pinned
        .iter()
        .filter(|(id, _)| !got.iter().any(|(g, _)| g == id))
        .map(|(id, _)| id.as_str())
        .collect();
    assert!(
        drifted.is_empty() && missing.is_empty(),
        "campaign golden drifted: {drifted:?} differ, {missing:?} no longer computed.\n\
         Computed digests (fixture format):\n{}",
        render(&got)
    );
}
