//! Admission control: which sweep submissions the service accepts.
//!
//! Three independent gates, checked in this order at submission time:
//!
//! 1. **Draining** — a shutting-down service admits nothing new
//!    (`503`, so load balancers and retry loops back off to another
//!    instance rather than retrying immediately).
//! 2. **Per-client in-flight cap** — one client cannot occupy the whole
//!    queue; a client is whatever `X-Client-Id` says, falling back to
//!    the peer address (`429`).
//! 3. **Queue budget** — the *estimated* cost of everything queued plus
//!    the new submission must fit the configured budget; estimates come
//!    from the [cost model](crate::cost). Sweeps whose runs are already
//!    cached estimate to zero and always fit (`429` when exceeded).
//!
//! Shedding at submission time, on estimates, is the point: by the time
//! a queue is oversubscribed in *actual* seconds it is minutes too late
//! to say no.

/// Admission-control limits. `Default` is sized for an interactive
/// single-host service.
#[derive(Debug, Clone, Copy)]
pub struct AdmissionPolicy {
    /// Maximum estimated seconds of queued, not-yet-started work the
    /// service accepts before shedding new sweeps.
    pub queue_budget_seconds: f64,
    /// Maximum concurrently in-flight (queued or running) jobs per
    /// client.
    pub client_inflight_cap: usize,
}

impl Default for AdmissionPolicy {
    fn default() -> Self {
        AdmissionPolicy {
            queue_budget_seconds: 600.0,
            client_inflight_cap: 4,
        }
    }
}

/// Why a submission was refused.
#[derive(Debug, Clone, PartialEq)]
pub enum Shed {
    /// The service is draining for shutdown.
    Draining,
    /// The queue's estimated cost budget would be exceeded.
    Budget {
        /// Estimated seconds of the refused submission.
        estimated: f64,
        /// Estimated seconds already queued.
        queued: f64,
        /// The configured budget.
        budget: f64,
    },
    /// The client already has too many jobs in flight.
    ClientCap {
        /// The client's current in-flight job count.
        inflight: usize,
        /// The configured cap.
        cap: usize,
    },
}

impl Shed {
    /// Stable identifier (the API's machine-readable error id).
    pub fn id(&self) -> &'static str {
        match self {
            Shed::Draining => "draining",
            Shed::Budget { .. } => "queue_budget_exceeded",
            Shed::ClientCap { .. } => "client_inflight_cap",
        }
    }

    /// HTTP status: `503` while draining (retry elsewhere / later),
    /// `429` for load shedding (back off).
    pub fn status(&self) -> u16 {
        match self {
            Shed::Draining => 503,
            Shed::Budget { .. } | Shed::ClientCap { .. } => 429,
        }
    }

    /// The refusal as the API's error JSON document.
    pub fn to_json(&self) -> String {
        match self {
            Shed::Draining => crate::service::error_json(
                "draining",
                "service is draining for shutdown; submit to another instance",
            ),
            Shed::Budget {
                estimated,
                queued,
                budget,
            } => format!(
                "{{\"error\": {{\"id\": \"queue_budget_exceeded\", \"message\": \
                 \"estimated {estimated:.1}s on top of {queued:.1}s queued exceeds \
                 the {budget:.1}s budget\", \"estimated_seconds\": {estimated:?}, \
                 \"queued_seconds\": {queued:?}, \"budget_seconds\": {budget:?}}}}}"
            ),
            Shed::ClientCap { inflight, cap } => format!(
                "{{\"error\": {{\"id\": \"client_inflight_cap\", \"message\": \
                 \"client already has {inflight} jobs in flight (cap {cap})\", \
                 \"inflight\": {inflight}, \"cap\": {cap}}}}}"
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphpim::json;

    #[test]
    fn statuses_and_ids_are_stable() {
        assert_eq!(Shed::Draining.status(), 503);
        assert_eq!(Shed::Draining.id(), "draining");
        let budget = Shed::Budget {
            estimated: 12.5,
            queued: 590.0,
            budget: 600.0,
        };
        assert_eq!(budget.status(), 429);
        assert_eq!(budget.id(), "queue_budget_exceeded");
        let cap = Shed::ClientCap {
            inflight: 4,
            cap: 4,
        };
        assert_eq!(cap.status(), 429);
        assert_eq!(cap.id(), "client_inflight_cap");
    }

    #[test]
    fn refusals_serialize_to_parseable_error_documents() {
        for shed in [
            Shed::Draining,
            Shed::Budget {
                estimated: 1.0,
                queued: 2.0,
                budget: 3.0,
            },
            Shed::ClientCap {
                inflight: 5,
                cap: 4,
            },
        ] {
            let doc = shed.to_json();
            let parsed = json::parse(&doc).unwrap_or_else(|| panic!("must parse: {doc}"));
            let err = parsed.as_object().unwrap().get("error").unwrap();
            assert_eq!(
                err.as_object().unwrap().get("id").unwrap().as_str(),
                Some(shed.id())
            );
        }
    }
}
