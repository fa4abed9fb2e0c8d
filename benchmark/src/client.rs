//! One closed-loop client: issues an op through the platform's public
//! functions, times the turn, and checks what came back.

use std::hint::black_box;

use li_commons::schema::Value;
use li_kafka::{Partitioner, Producer, SimpleConsumer};
use li_workload::datasets::PymkRecord;
use linkedin_data_infra::consumers::member_row_key;
use linkedin_data_infra::platform::{ACTIVITY_TOPIC, PROFILE_DB, PROFILE_TABLE};
use linkedin_data_infra::DataPlatform;

use crate::ops::{Op, OpClass};
use crate::trace::{Open, Tracer};

/// Every profile text, seeded or written by an update op, names its member.
fn names_member(text: &str, member: u64) -> bool {
    text.strip_prefix("member ")
        .and_then(|rest| rest.split(' ').next())
        .and_then(|id| id.parse::<u64>().ok())
        == Some(member)
}

pub struct Client<'a> {
    platform: &'a DataPlatform,
    producer: Producer,
    pub tracer: Tracer,
    /// Traced runs call into each crate separately, so that each call has
    /// its own span.
    split_calls: bool,
    /// Latency samples per op class, in nanoseconds.
    latencies: [Vec<u64>; 6],
    pub attempted: u64,
    pub failed: u64,
    /// Activity sends the producer accepted (buffered or published).
    sends_accepted: u64,
    pub multi_get_keys: u64,
    pub pump_errors: u64,
    /// Time this client spent in its measured loop; its spans should
    /// cover it.
    pub active_ns: u64,
    next_op_id: u64,
}

impl<'a> Client<'a> {
    pub fn new(platform: &'a DataPlatform, tracer: Tracer, index: u64) -> Self {
        Client {
            platform,
            // The producer session `SiteBench` gives each of its drivers.
            producer: Producer::new(platform.kafka_live.clone())
                .with_partitioner(Partitioner::Keyed)
                .with_batch_size(16)
                .with_batch_bytes(16 << 10),
            split_calls: tracer.keeps_spans(),
            tracer,
            latencies: std::array::from_fn(|_| Vec::with_capacity(1 << 23)),
            attempted: 0,
            failed: 0,
            sends_accepted: 0,
            multi_get_keys: 0,
            pump_errors: 0,
            active_ns: 0,
            // Ids of different clients must not collide in the trace.
            next_op_id: index << 40,
        }
    }

    fn next_id(&mut self) -> u64 {
        self.next_op_id += 1;
        self.next_op_id
    }

    fn child(&mut self, name: &'static str, root: Open, op_id: u64) -> Option<Open> {
        self.split_calls
            .then(|| self.tracer.open(name, Some(root), op_id))
    }

    fn end(&mut self, child: Option<Open>) {
        if let Some(child) = child {
            self.tracer.close(child);
        }
    }

    /// One timed turn. The output is checked after the clock has stopped.
    pub fn execute(&mut self, op: Op) {
        let class = op.class();
        let op_id = self.next_id();
        self.attempted += 1;
        let root = self.tracer.open(class.name(), None, op_id);
        let (latency, correct) = match op {
            Op::ProfileRead(member) => {
                let text = if self.split_calls {
                    let call = self.child("espresso.get", root, op_id);
                    let doc = self.platform.espresso.get(
                        PROFILE_DB,
                        PROFILE_TABLE,
                        &member_row_key(member),
                    );
                    self.end(call);
                    doc.ok()
                        .flatten()
                        .and_then(|(record, _row)| match record.get("text") {
                            Some(Value::Str(text)) => Some(text.clone()),
                            _ => None,
                        })
                } else {
                    self.platform.profile(member).ok().flatten()
                };
                (
                    self.tracer.close(root),
                    text.is_some_and(|t| names_member(&t, member)),
                )
            }
            Op::PymkPage(member) => {
                let page = self.pymk_page(member, root, op_id);
                let latency = self.tracer.close(root);
                let correct = page.is_some_and(|(ids, cards)| {
                    ids.len() == cards.len()
                        && ids
                            .iter()
                            .zip(&cards)
                            .all(|(id, card)| card.as_deref().is_some_and(|t| names_member(t, *id)))
                });
                (latency, correct)
            }
            Op::FollowWrite { member, company } => {
                let result = self.platform.follow_company(member, company);
                (self.tracer.close(root), result.is_ok())
            }
            Op::FollowersRead(company) => {
                let result = self.platform.followers(company);
                let latency = self.tracer.close(root);
                (latency, black_box(result).is_ok())
            }
            Op::ProfileUpdate { member, text } => {
                let result = self.platform.update_profile(member, &text);
                (self.tracer.close(root), result.is_ok())
            }
            Op::ActivitySend { key, event, .. } => {
                let result = self
                    .producer
                    .send_keyed(ACTIVITY_TOPIC, key.as_bytes(), event);
                let latency = self.tracer.close(root);
                if result.is_ok() {
                    self.sends_accepted += 1;
                }
                (latency, result.is_ok())
            }
        };
        self.latencies[class as usize].push(latency);
        if !correct {
            self.failed += 1;
        }
    }

    /// The page as the site serves it: the read-only store's list, its
    /// decoding, and one multi-key read of the recommended profiles.
    fn pymk_page(
        &mut self,
        member: u64,
        root: Open,
        op_id: u64,
    ) -> Option<(Vec<u64>, Vec<Option<String>>)> {
        let call = self.child("voldemort.ro_get", root, op_id);
        let list = self.platform.pymk_recommendations(member);
        self.end(call);
        let bytes = list.ok().flatten()?;
        let call = self.child("workload.pymk_decode", root, op_id);
        let ids: Option<Vec<u64>> = PymkRecord::from_bytes(member, &bytes)
            .map(|record| record.recommendations.iter().map(|&(id, _)| id).collect());
        self.end(call);
        let ids = ids?;
        let call = self.child("espresso.multi_get", root, op_id);
        let cards = self.platform.profiles(&ids);
        self.end(call);
        self.multi_get_keys += ids.len() as u64;
        Some((ids, cards.ok()?))
    }

    /// One turn of the stream tier on this thread. Returns its duration.
    pub fn pump(&mut self) -> u64 {
        let id = self.next_id();
        let root = self.tracer.open("core.pump", None, id);
        let platform = self.platform;
        let ok = if self.split_calls {
            // The three stages the benchmark can reach through public
            // fields run first, each under its own span; `pump_streams`
            // then finds them done, and what it still does is the rest.
            let call = self.child("databus.bootstrap_catch_up", root, id);
            let caught_up = platform.bootstrap.catch_up_from(&platform.relay).is_ok();
            self.end(call);
            let call = self.child("databus.bootstrap_apply_log", root, id);
            platform.bootstrap.apply_log();
            self.end(call);
            let call = self.child("espresso.pump_replication", root, id);
            let replicated = platform.espresso.pump_replication().is_ok();
            self.end(call);
            let call = self.child("core.pump_rest", root, id);
            let rest = platform.pump_streams().is_ok();
            self.end(call);
            caught_up && replicated && rest
        } else {
            platform.pump_streams().is_ok()
        };
        if !ok {
            self.pump_errors += 1;
        }
        self.tracer.close(root)
    }

    /// Polls every online consumer to empty. Returns messages consumed,
    /// or `None` if a fetch failed.
    pub fn poll(&mut self, consumers: &mut [SimpleConsumer]) -> Option<u64> {
        let id = self.next_id();
        let root = self.tracer.open("kafka.poll", None, id);
        let mut consumed = Some(0u64);
        for consumer in consumers {
            loop {
                match consumer.poll() {
                    Ok(batch) if batch.is_empty() => break,
                    Ok(batch) => consumed = consumed.map(|n| n + black_box(batch).len() as u64),
                    Err(_) => {
                        consumed = None;
                        break;
                    }
                }
            }
        }
        self.tracer.close(root);
        consumed
    }

    /// Loads what the mirror has copied into the warehouse.
    pub fn load_warehouse(&mut self) -> bool {
        let id = self.next_id();
        let root = self.tracer.open("kafka.warehouse_load", None, id);
        let loaded = self.platform.force_warehouse_load();
        self.tracer.close(root);
        loaded.is_ok()
    }

    /// Publishes what the producer still buffers and settles the sends:
    /// an accepted send that never reached a broker is a failed op.
    pub fn flush_sends(&mut self) {
        let _ = self.producer.flush();
        let lost = self
            .sends_accepted
            .saturating_sub(self.producer.stats().messages);
        self.failed += lost;
    }

    /// Messages this client's producer published to the brokers.
    pub fn sends_published(&self) -> u64 {
        self.producer.stats().messages
    }

    pub fn samples(&self, class: OpClass) -> &[u64] {
        &self.latencies[class as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::names_member;

    #[test]
    fn profile_text_names_its_member() {
        assert!(names_member("member 12 engineer graph", 12));
        assert!(names_member("member 12 rev 0-3 a b c", 12));
        assert!(!names_member("member 120 engineer", 12));
        assert!(!names_member("engineer", 12));
    }
}
