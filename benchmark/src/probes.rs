//! Layer probes: timed calls into single crates, through the public
//! fields of `DataPlatform`, against the state the workload left behind.
//! They run after the gates, so the rows they write disturb no check.

use std::hint::black_box;
use std::time::Instant;

use bytes::Bytes;
use li_commons::schema::{Record, Value};
use li_databus::ServerFilter;
use li_voldemort::StoreDef;
use linkedin_data_infra::consumers::{company_row_key, member_row_key};
use linkedin_data_infra::platform::{PROFILE_DB, PROFILE_TABLE};
use linkedin_data_infra::SiteBench;

use crate::rng::{split_seed, Rng};
use crate::stats::Latencies;

/// Companies whose rows count as hot: ids are Zipf ranks, so these are
/// the sixteen longest follower lists.
const HOT_COMPANIES: u64 = 16;
const HOT_CALLS: usize = 64;
const PROBE_TABLE: &str = "bench_probe";
const PROBE_STORE: &str = "bench-probe";

/// Calls `probe` on each input, timing the call alone; the median in
/// microseconds and the number of calls.
fn p50_us<I, R, E: std::fmt::Display>(
    inputs: impl IntoIterator<Item = I>,
    mut probe: impl FnMut(I) -> Result<R, E>,
) -> Result<(f64, usize), String> {
    let mut samples = Vec::new();
    for input in inputs {
        let start = Instant::now();
        let result = probe(input);
        samples.push(start.elapsed().as_nanos() as u64);
        black_box(result.map_err(|e| e.to_string())?);
    }
    let calls = samples.len();
    Ok((Latencies::from_unsorted(samples).us(0.5), calls))
}

/// Median latencies in microseconds and calls made, by layer metric name.
pub fn run(
    bench: &SiteBench,
    seed: u64,
    calls: usize,
) -> Result<Vec<(&'static str, f64, usize)>, String> {
    let platform = bench.platform();
    let members = bench.graph().member_count();
    let hot_companies = HOT_COMPANIES.min(bench.graph().company_count());
    let mut rng = Rng::from_seed(split_seed(seed, 2000));
    let mut some_members = |n: usize| (0..n).map(|_| rng.below(members)).collect::<Vec<u64>>();
    let hot = || (0..HOT_CALLS as u64).map(|i| i % hot_companies);
    let mut out = Vec::new();

    // sqlstore: point reads, then commits (binlog append + semi-sync ship
    // to the relay) of a small row and of a hot-list-sized row.
    let primary = &platform.primary;
    let keys = some_members(calls).into_iter().map(member_row_key);
    out.push((
        "sqlstore.get_small_p50_us",
        p50_us(keys, |key| primary.get("member_follows", &key))?,
    ));
    let keys = hot().map(company_row_key);
    out.push((
        "sqlstore.get_hot_p50_us",
        p50_us(keys, |key| primary.get("company_followers", &key))?,
    ));
    let hot_value = primary
        .get("company_followers", &company_row_key(0))
        .map_err(|e| e.to_string())?
        .map_or_else(Vec::new, |row| row.value.to_vec());
    primary
        .create_table(PROBE_TABLE)
        .map_err(|e| e.to_string())?;
    let rows = some_members(calls)
        .into_iter()
        .enumerate()
        .map(|(i, member)| (member_row_key(member), i.to_string().into_bytes()));
    out.push((
        "sqlstore.commit_small_p50_us",
        p50_us(rows, |(key, value)| {
            primary.put_one(PROBE_TABLE, key, value, 1)
        })?,
    ));
    let rows = hot().map(|company| (company_row_key(company), hot_value.clone()));
    out.push((
        "sqlstore.commit_hot_p50_us",
        p50_us(rows, |(key, value)| {
            primary.put_one(PROBE_TABLE, key, value, 1)
        })?,
    ));

    // Databus: a consumer's read from the middle of the relay buffer.
    let relay = &platform.relay;
    let mid_scn = relay.oldest_scn() + (relay.newest_scn() - relay.oldest_scn()) / 2;
    let filter = ServerFilter::all();
    out.push((
        "databus.relay_read_p50_us",
        p50_us(0..calls, |_| {
            relay.events_after_shared(mid_scn, 64, &filter)
        })?,
    ));

    // Voldemort read-write stores: cache reads of a small and of a hot
    // list, and the put the follow cacher pays per small row.
    let voldemort = &platform.voldemort;
    let store = voldemort
        .client("member-follows")
        .map_err(|e| e.to_string())?;
    let keys = some_members(calls)
        .into_iter()
        .map(|m| member_row_key(m).to_string());
    out.push((
        "voldemort.rw_get_small_p50_us",
        p50_us(keys, |key| store.get(key.as_bytes()))?,
    ));
    let store = voldemort
        .client("company-followers")
        .map_err(|e| e.to_string())?;
    let keys = hot().map(|company| company_row_key(company).to_string());
    out.push((
        "voldemort.rw_get_hot_p50_us",
        p50_us(keys, |key| store.get(key.as_bytes()))?,
    ));
    voldemort
        .add_store(StoreDef::read_write(PROBE_STORE))
        .map_err(|e| e.to_string())?;
    let store = voldemort.client(PROBE_STORE).map_err(|e| e.to_string())?;
    let entries = some_members(calls)
        .into_iter()
        .enumerate()
        .map(|(i, member)| {
            (
                member_row_key(member).to_string(),
                Bytes::from(format!("{i},{member}")),
            )
        });
    out.push((
        "voldemort.rw_put_small_p50_us",
        p50_us(entries, |(key, value)| {
            store.apply_update(key.as_bytes(), 8, &|_siblings| Some(value.clone()))
        })?,
    ));

    // Espresso: a routed document put (each member's own text again).
    let mut documents = Vec::with_capacity(calls);
    for member in some_members(calls) {
        let text = platform.profile(member).map_err(|e| e.to_string())?;
        let text = text.ok_or_else(|| format!("member {member} has no profile"))?;
        documents.push((
            member_row_key(member),
            Record::new().with("text", Value::Str(text)),
        ));
    }
    out.push((
        "espresso.put_p50_us",
        p50_us(documents, |(key, record)| {
            platform
                .espresso
                .put(PROFILE_DB, PROFILE_TABLE, key, &record)
        })?,
    ));
    Ok(out
        .into_iter()
        .map(|(name, (p50_us, calls))| (name, p50_us, calls))
        .collect())
}
