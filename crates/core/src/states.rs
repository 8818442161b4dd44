//! The client and coordinator state machines of the movement protocol,
//! exactly as the paper's Fig. 4.
//!
//! The movement protocol is a conversation between the *source
//! coordinator* (at the broker the client moves from) and the *target
//! coordinator* (at the broker it moves to), modelled on three-phase
//! commit. Each coordinator supervises a copy of the client; the
//! paper's central safety claims are stated over these local states:
//!
//! 1. in a **final** global state, exactly one client copy is
//!    `Started` and the other is `Clean`;
//! 2. in **any** reachable global state, at most one client copy is
//!    `Started`.
//!
//! `transmob_sim::explore` checks both claims on every schedule of a
//! movement between real brokers, the paper's Fig. 5 graph projected
//! from the code; [`source_client_states`] / [`target_client_states`]
//! encode the concurrent-state table embedded in Fig. 4.

use std::fmt;

use serde::{Deserialize, Serialize};

/// States of the coordinator at the source broker (Fig. 4, "Source
/// Coordinator").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum SourceCoordState {
    /// No movement in progress.
    Init,
    /// `move` received from the client; `negotiate` sent to the
    /// target; awaiting `approve` or `reject`.
    Wait,
    /// `approve` received; client is being stopped; `state` sent;
    /// awaiting `ack`.
    Prepare,
    /// Movement aborted; client resumed at the source.
    Abort,
    /// `ack` received; source copy cleaned up.
    Commit,
}

/// States of the coordinator at the target broker (Fig. 4, "Target
/// Coordinator").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum TargetCoordState {
    /// No movement in progress.
    Init,
    /// `negotiate` accepted; client copy created; routing
    /// reconfiguration issued; awaiting `state`.
    Prepare,
    /// Movement aborted (rejected, or timed out); client copy
    /// destroyed.
    Abort,
    /// `state` received; client started; `ack` sent.
    Commit,
}

/// States of a client copy (Fig. 4, "Source Client" / "Target
/// Client"). A copy at the source walks
/// `Started → PauseMove → PrepareStop → Clean` on a successful
/// movement; a copy at the target walks `Init → Created → Started`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum ClientState {
    /// Not yet created.
    Init,
    /// Created but not running (target copy before commit).
    Created,
    /// Running: publishes and receives notifications.
    Started,
    /// Paused by the application (operational pause; not moving).
    PauseOper,
    /// Paused because a movement was requested; operations are queued
    /// and notifications buffered.
    PauseMove,
    /// Being stopped: state captured for transfer.
    PrepareStop,
    /// Removed after a committed movement (source copy) or an aborted
    /// one (target copy).
    Clean,
}

impl ClientState {
    /// Whether the client is visible to the rest of the system (it can
    /// publish). The isolation property of Sec. 3.3 reduces to: a
    /// moving client is never `Started` at two places at once.
    pub fn is_started(self) -> bool {
        self == ClientState::Started
    }

    /// Whether application commands must be queued rather than
    /// executed.
    pub fn queues_commands(self) -> bool {
        matches!(
            self,
            ClientState::PauseMove | ClientState::PrepareStop | ClientState::Created
        )
    }

    /// Whether notifications delivered to this copy are buffered for
    /// later (rather than surfaced to the application).
    pub fn buffers_notifications(self) -> bool {
        matches!(
            self,
            ClientState::PauseMove
                | ClientState::PrepareStop
                | ClientState::Created
                | ClientState::PauseOper
        )
    }
}

impl fmt::Display for SourceCoordState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SourceCoordState::Init => "init",
            SourceCoordState::Wait => "wait",
            SourceCoordState::Prepare => "prepare",
            SourceCoordState::Abort => "abort",
            SourceCoordState::Commit => "commit",
        };
        f.write_str(s)
    }
}

impl fmt::Display for TargetCoordState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TargetCoordState::Init => "init",
            TargetCoordState::Prepare => "prepare",
            TargetCoordState::Abort => "abort",
            TargetCoordState::Commit => "commit",
        };
        f.write_str(s)
    }
}

impl fmt::Display for ClientState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ClientState::Init => "init",
            ClientState::Created => "created",
            ClientState::Started => "started",
            ClientState::PauseOper => "pause_oper",
            ClientState::PauseMove => "pause_move",
            ClientState::PrepareStop => "prepare_stop",
            ClientState::Clean => "clean",
        };
        f.write_str(s)
    }
}

/// The concurrent source-side client states allowed for each source
/// coordinator state (the table embedded in Fig. 4).
pub fn source_client_states(coord: SourceCoordState) -> &'static [ClientState] {
    match coord {
        SourceCoordState::Init => &[
            ClientState::Init,
            ClientState::Created,
            ClientState::Started,
            ClientState::PauseOper,
        ],
        SourceCoordState::Wait => &[ClientState::PauseMove],
        SourceCoordState::Prepare => &[ClientState::PrepareStop],
        SourceCoordState::Abort => &[ClientState::Started],
        SourceCoordState::Commit => &[ClientState::Clean],
    }
}

/// The concurrent target-side client states allowed for each target
/// coordinator state (the table embedded in Fig. 4).
pub fn target_client_states(coord: TargetCoordState) -> &'static [ClientState] {
    match coord {
        TargetCoordState::Init => &[ClientState::Init],
        TargetCoordState::Prepare => &[ClientState::Created],
        TargetCoordState::Abort => &[ClientState::Clean],
        TargetCoordState::Commit => &[ClientState::Started],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn started_is_exclusive_flag() {
        assert!(ClientState::Started.is_started());
        for s in [
            ClientState::Init,
            ClientState::Created,
            ClientState::PauseOper,
            ClientState::PauseMove,
            ClientState::PrepareStop,
            ClientState::Clean,
        ] {
            assert!(!s.is_started());
        }
    }

    #[test]
    fn concurrent_state_table_matches_fig4() {
        assert_eq!(
            source_client_states(SourceCoordState::Wait),
            &[ClientState::PauseMove]
        );
        assert_eq!(
            source_client_states(SourceCoordState::Commit),
            &[ClientState::Clean]
        );
        assert_eq!(
            target_client_states(TargetCoordState::Commit),
            &[ClientState::Started]
        );
        assert_eq!(
            target_client_states(TargetCoordState::Abort),
            &[ClientState::Clean]
        );
    }

    #[test]
    fn fig4_table_never_allows_two_started() {
        // Over the coordinator-state pairs the brokers reach (Fig. 5
        // plus the timeout labels), the concurrent-state table admits
        // at most one Started client — the static shadow of the
        // explored invariant.
        use SourceCoordState as S;
        use TargetCoordState as T;
        let reachable = [
            (S::Init, T::Init),
            (S::Wait, T::Init),
            (S::Wait, T::Prepare),
            (S::Wait, T::Abort),
            (S::Abort, T::Init),
            (S::Abort, T::Abort),
            (S::Abort, T::Prepare),
            (S::Prepare, T::Abort),
            (S::Prepare, T::Prepare),
            (S::Prepare, T::Commit),
            (S::Commit, T::Commit),
        ];
        for (sc, tc) in reachable {
            let src_started = source_client_states(sc).contains(&ClientState::Started);
            let tgt_started = target_client_states(tc).contains(&ClientState::Started);
            assert!(
                !(src_started && tgt_started),
                "table admits two started copies at ({sc},{tc})"
            );
        }
    }

    #[test]
    fn queueing_and_buffering_flags() {
        assert!(ClientState::PauseMove.queues_commands());
        assert!(ClientState::Created.queues_commands());
        assert!(!ClientState::Started.queues_commands());
        assert!(ClientState::PauseOper.buffers_notifications());
        assert!(!ClientState::Started.buffers_notifications());
        assert!(!ClientState::Clean.buffers_notifications());
    }

    #[test]
    fn display_names_match_paper() {
        assert_eq!(SourceCoordState::Wait.to_string(), "wait");
        assert_eq!(TargetCoordState::Prepare.to_string(), "prepare");
        assert_eq!(ClientState::PauseMove.to_string(), "pause_move");
    }
}
