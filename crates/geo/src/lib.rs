//! # geoproof-geo
//!
//! Geographic substrate for the GeoProof reproduction:
//!
//! * [`coords`] — latitude/longitude points, haversine distance, and the
//!   Australian locations of the paper's Table III measurements;
//! * [`gps`] — the verifier device's GPS receiver, its spoofing attack
//!   (§V-C) and the landmark cross-check countermeasure;
//! * [`triangulation`] — multilateration from range measurements;
//! * [`schemes`] — the baseline Internet-geolocation schemes the paper
//!   reviews and rejects (§III-B): GeoPing, Octant-style constraint
//!   regions, TBG-style delay multilateration.
//!
//! # Examples
//!
//! ```
//! use geoproof_geo::coords::places::{BRISBANE, PERTH};
//!
//! let d = BRISBANE.distance(&PERTH);
//! assert!((d.0 - 3605.0).abs() < 40.0); // paper Table III row 9
//! ```

pub mod coords;
pub mod gps;
pub mod schemes;
pub mod triangulation;

pub use coords::{GeoPoint, EARTH_RADIUS_KM};
pub use gps::{GpsFix, GpsReceiver, PositionCheck};
pub use schemes::{ConstraintRegion, DelayObservation, GeoPingDb};
pub use triangulation::{multilaterate, robust_multilaterate, RangeMeasurement, RobustEstimate};
