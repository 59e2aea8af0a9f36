//! # geoproof-net
//!
//! Geographic network simulation for the GeoProof evaluation:
//!
//! * [`lan`] — the §V-E local-network model: fibre at 2/3 c, Ethernet
//!   transmission delay, switch forwarding, load; reproduces Table II's
//!   "< 1 ms inside a campus LAN";
//! * [`wan`] — the §V-F Internet model: 4/9 c effective speed, access
//!   overheads, hop delays; calibrated against Table III's nine Australian
//!   paths; plus [`wan::Placement`] for honest-vs-relayed storage;
//! * [`topology`] — named hosts at geographic positions with `ping` and
//!   `traceroute`;
//! * [`load`] — queueing/contention models for provers answering many
//!   concurrent audit sessions at once.
//!
//! # Examples
//!
//! ```
//! use geoproof_net::wan::{WanModel, AccessKind};
//! use geoproof_sim::time::Km;
//!
//! let wan = WanModel::calibrated(AccessKind::Adsl2);
//! // Brisbane → Perth (Table III row 9): ≈ 82 ms.
//! let rtt = wan.mean_rtt(Km(3605.0)).as_millis_f64();
//! assert!((rtt - 82.0).abs() < 10.0);
//! ```

pub mod lan;
pub mod load;
pub mod topology;
pub mod wan;

pub use lan::{LanPath, LinkRate, Medium};
pub use load::{max_concurrent_within_budget, ContentionModel};
pub use topology::{Hop, Host, Network, TopologyError};
pub use wan::{AccessKind, Placement, WanModel};
