//! # linkedin-data-infra — the umbrella crate
//!
//! Re-exports the four systems of *Data Infrastructure at LinkedIn*
//! (ICDE 2012) and provides [`platform::DataPlatform`], an in-process
//! assembly of Figure I.1: a primary database whose changes flow through
//! Databus into a derived-data system (a Voldemort cache), an Espresso
//! profile store whose update stream feeds a people-search index, and
//! activity events flowing through Kafka into online consumers and a
//! mirrored offline cluster feeding a warehouse loader.
//! [`population`] seeds that assembly with a member population.
//!
//! ```
//! use linkedin_data_infra::platform::DataPlatform;
//!
//! let platform = DataPlatform::new(4, 2).unwrap();
//! platform.follow_company(42, 7).unwrap();
//! platform.pump().unwrap();
//! assert_eq!(platform.followed_companies(42).unwrap(), vec![7]);
//! assert_eq!(platform.followers(7).unwrap(), vec![42]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod consumers;
pub mod platform;
pub mod population;

pub use platform::{DataPlatform, PlatformConfig, ShardMode};
pub use population::{PrepareStats, SiteBench, SiteBenchConfig};

// The four systems, one roof.
pub use li_commons as commons;
pub use li_databus as databus;
pub use li_espresso as espresso;
pub use li_helix as helix;
pub use li_kafka as kafka;
pub use li_sqlstore as sqlstore;
pub use li_voldemort as voldemort;
pub use li_workload as workload;
pub use li_zk as zk;
