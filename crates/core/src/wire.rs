//! Binary wire encoding ([`Wire`]) for the movement-protocol message
//! family and the unified [`Message`] envelope.
//!
//! Tag bytes are part of the wire contract (DESIGN.md §13) and must
//! never be renumbered. `Message`: 0 PubSub, 1 Move, 2 BrokerDeath.
//! `MoveMsg`: the
//! variants in declaration order, 0 Negotiate … 9 CovDone. `ClientOp`:
//! declaration order, 0 Subscribe … 7 MoveTo. `ProtocolKind`:
//! 0 Reconfig, 1 Covering.

use transmob_broker::PubSubMsg;
use transmob_pubsub::wire::{Wire, WireError, WireReader, WireWriter};
use transmob_pubsub::{
    Advertisement, BrokerId, ClientId, Filter, MoveId, PubId, Publication, PublicationMsg,
    Subscription,
};

use crate::client_stub::SeenWindow;
use crate::messages::{ClientOp, ClientProfile, ClientSnapshot, Message, MoveMsg, ProtocolKind};

impl Wire for ProtocolKind {
    fn enc(&self, w: &mut WireWriter<'_>) {
        w.byte(match self {
            ProtocolKind::Reconfig => 0,
            ProtocolKind::Covering => 1,
        });
    }
    fn dec(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.byte()? {
            0 => Ok(ProtocolKind::Reconfig),
            1 => Ok(ProtocolKind::Covering),
            t => Err(WireError(format!("unknown protocol tag {t}"))),
        }
    }
}

impl Wire for ClientProfile {
    fn enc(&self, w: &mut WireWriter<'_>) {
        self.subs.enc(w);
        self.advs.enc(w);
    }
    fn dec(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(ClientProfile {
            subs: Vec::<Subscription>::dec(r)?,
            advs: Vec::<Advertisement>::dec(r)?,
        })
    }
}

impl Wire for ClientOp {
    fn enc(&self, w: &mut WireWriter<'_>) {
        match self {
            ClientOp::Subscribe(f) => {
                w.byte(0);
                f.enc(w);
            }
            ClientOp::Unsubscribe(seq) => {
                w.byte(1);
                seq.enc(w);
            }
            ClientOp::Advertise(f) => {
                w.byte(2);
                f.enc(w);
            }
            ClientOp::Unadvertise(seq) => {
                w.byte(3);
                seq.enc(w);
            }
            ClientOp::Publish(p) => {
                w.byte(4);
                p.enc(w);
            }
            ClientOp::Pause => w.byte(5),
            ClientOp::Resume => w.byte(6),
            ClientOp::MoveTo(b, proto) => {
                w.byte(7);
                b.enc(w);
                proto.enc(w);
            }
        }
    }
    fn dec(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.byte()? {
            0 => Ok(ClientOp::Subscribe(Filter::dec(r)?)),
            1 => Ok(ClientOp::Unsubscribe(u32::dec(r)?)),
            2 => Ok(ClientOp::Advertise(Filter::dec(r)?)),
            3 => Ok(ClientOp::Unadvertise(u32::dec(r)?)),
            4 => Ok(ClientOp::Publish(Publication::dec(r)?)),
            5 => Ok(ClientOp::Pause),
            6 => Ok(ClientOp::Resume),
            7 => Ok(ClientOp::MoveTo(BrokerId::dec(r)?, ProtocolKind::dec(r)?)),
            t => Err(WireError(format!("unknown client-op tag {t}"))),
        }
    }
}

/// The bytes of a `Vec<PubId>` holding the ring oldest first; decoding
/// is the one place a window is rebuilt.
impl Wire for SeenWindow {
    fn enc(&self, w: &mut WireWriter<'_>) {
        w.varint(self.len() as u64);
        for id in self.iter() {
            id.enc(w);
        }
    }
    fn dec(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(SeenWindow::from_recent(&Vec::<PubId>::dec(r)?))
    }
}

impl Wire for ClientSnapshot {
    fn enc(&self, w: &mut WireWriter<'_>) {
        self.buffered.enc(w);
        self.seen.enc(w);
        self.queued_ops.enc(w);
        let (s, a, p) = self.next_seq;
        s.enc(w);
        a.enc(w);
        p.enc(w);
    }
    fn dec(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(ClientSnapshot {
            buffered: Vec::<PublicationMsg>::dec(r)?,
            seen: SeenWindow::dec(r)?,
            queued_ops: Vec::<ClientOp>::dec(r)?,
            next_seq: (u32::dec(r)?, u32::dec(r)?, u32::dec(r)?),
        })
    }
}

impl Wire for MoveMsg {
    fn enc(&self, w: &mut WireWriter<'_>) {
        match self {
            MoveMsg::Negotiate {
                m,
                client,
                source,
                target,
                profile,
                protocol,
            } => {
                w.byte(0);
                m.enc(w);
                client.enc(w);
                source.enc(w);
                target.enc(w);
                profile.enc(w);
                protocol.enc(w);
            }
            MoveMsg::Reject { m, source, target } => {
                w.byte(1);
                m.enc(w);
                source.enc(w);
                target.enc(w);
            }
            MoveMsg::Reconfigure {
                m,
                client,
                source,
                target,
                profile,
            } => {
                w.byte(2);
                m.enc(w);
                client.enc(w);
                source.enc(w);
                target.enc(w);
                profile.enc(w);
            }
            MoveMsg::StateTransfer {
                m,
                client,
                source,
                target,
                snapshot,
            } => {
                w.byte(3);
                m.enc(w);
                client.enc(w);
                source.enc(w);
                target.enc(w);
                snapshot.enc(w);
            }
            MoveMsg::Ack { m, source, target } => {
                w.byte(4);
                m.enc(w);
                source.enc(w);
                target.enc(w);
            }
            MoveMsg::AbortMove {
                m,
                client,
                source,
                target,
                toward,
            } => {
                w.byte(5);
                m.enc(w);
                client.enc(w);
                source.enc(w);
                target.enc(w);
                toward.enc(w);
            }
            MoveMsg::CovRequest {
                m,
                client,
                source,
                target,
            } => {
                w.byte(6);
                m.enc(w);
                client.enc(w);
                source.enc(w);
                target.enc(w);
            }
            MoveMsg::CovAccept { m, source, target } => {
                w.byte(7);
                m.enc(w);
                source.enc(w);
                target.enc(w);
            }
            MoveMsg::CovTransfer {
                m,
                client,
                source,
                target,
                profile,
                snapshot,
            } => {
                w.byte(8);
                m.enc(w);
                client.enc(w);
                source.enc(w);
                target.enc(w);
                profile.enc(w);
                snapshot.enc(w);
            }
            MoveMsg::CovDone { m, source, target } => {
                w.byte(9);
                m.enc(w);
                source.enc(w);
                target.enc(w);
            }
        }
    }

    fn dec(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let tag = r.byte()?;
        let m = MoveId::dec(r)?;
        Ok(match tag {
            0 => MoveMsg::Negotiate {
                m,
                client: ClientId::dec(r)?,
                source: BrokerId::dec(r)?,
                target: BrokerId::dec(r)?,
                profile: ClientProfile::dec(r)?,
                protocol: ProtocolKind::dec(r)?,
            },
            1 => MoveMsg::Reject {
                m,
                source: BrokerId::dec(r)?,
                target: BrokerId::dec(r)?,
            },
            2 => MoveMsg::Reconfigure {
                m,
                client: ClientId::dec(r)?,
                source: BrokerId::dec(r)?,
                target: BrokerId::dec(r)?,
                profile: ClientProfile::dec(r)?,
            },
            3 => MoveMsg::StateTransfer {
                m,
                client: ClientId::dec(r)?,
                source: BrokerId::dec(r)?,
                target: BrokerId::dec(r)?,
                snapshot: ClientSnapshot::dec(r)?,
            },
            4 => MoveMsg::Ack {
                m,
                source: BrokerId::dec(r)?,
                target: BrokerId::dec(r)?,
            },
            5 => MoveMsg::AbortMove {
                m,
                client: ClientId::dec(r)?,
                source: BrokerId::dec(r)?,
                target: BrokerId::dec(r)?,
                toward: BrokerId::dec(r)?,
            },
            6 => MoveMsg::CovRequest {
                m,
                client: ClientId::dec(r)?,
                source: BrokerId::dec(r)?,
                target: BrokerId::dec(r)?,
            },
            7 => MoveMsg::CovAccept {
                m,
                source: BrokerId::dec(r)?,
                target: BrokerId::dec(r)?,
            },
            8 => MoveMsg::CovTransfer {
                m,
                client: ClientId::dec(r)?,
                source: BrokerId::dec(r)?,
                target: BrokerId::dec(r)?,
                profile: ClientProfile::dec(r)?,
                snapshot: ClientSnapshot::dec(r)?,
            },
            9 => MoveMsg::CovDone {
                m,
                source: BrokerId::dec(r)?,
                target: BrokerId::dec(r)?,
            },
            t => return Err(WireError(format!("unknown move tag {t}"))),
        })
    }
}

impl Wire for Message {
    fn enc(&self, w: &mut WireWriter<'_>) {
        match self {
            Message::PubSub(p) => {
                w.byte(0);
                p.enc(w);
            }
            Message::Move(m) => {
                w.byte(1);
                m.enc(w);
            }
            Message::BrokerDeath { dead } => {
                w.byte(2);
                dead.enc(w);
            }
        }
    }
    fn dec(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.byte()? {
            0 => Ok(Message::PubSub(PubSubMsg::dec(r)?)),
            1 => Ok(Message::Move(Box::new(MoveMsg::dec(r)?))),
            2 => Ok(Message::BrokerDeath {
                dead: BrokerId::dec(r)?,
            }),
            t => Err(WireError(format!("unknown message tag {t}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use transmob_pubsub::wire::{decode_one, encode_one};
    use transmob_pubsub::{AdvId, SubId};

    fn profile() -> ClientProfile {
        ClientProfile {
            subs: vec![Subscription::new(
                SubId::new(ClientId(4), 0),
                Filter::builder()
                    .eq("class", "stock")
                    .lt("price", 50)
                    .build(),
            )],
            advs: vec![Advertisement::new(
                AdvId::new(ClientId(4), 1),
                Filter::builder().any("price").build(),
            )],
        }
    }

    fn snapshot() -> ClientSnapshot {
        ClientSnapshot {
            buffered: vec![PublicationMsg::new(
                PubId(3),
                ClientId(8),
                Publication::new().with("price", 12).with("class", "stock"),
            )],
            seen: SeenWindow::from_recent(&[PubId(1), PubId(2)]),
            queued_ops: vec![
                ClientOp::Publish(Publication::new().with("price", 9)),
                ClientOp::Pause,
                ClientOp::MoveTo(BrokerId(3), ProtocolKind::Covering),
                ClientOp::Unsubscribe(2),
            ],
            next_seq: (5, 2, 11),
        }
    }

    #[test]
    fn every_move_variant_round_trips() {
        let m = MoveId(42);
        let (c, s, t) = (ClientId(4), BrokerId(0), BrokerId(2));
        let msgs = vec![
            MoveMsg::Negotiate {
                m,
                client: c,
                source: s,
                target: t,
                profile: profile(),
                protocol: ProtocolKind::Reconfig,
            },
            MoveMsg::Reject {
                m,
                source: s,
                target: t,
            },
            MoveMsg::Reconfigure {
                m,
                client: c,
                source: s,
                target: t,
                profile: profile(),
            },
            MoveMsg::StateTransfer {
                m,
                client: c,
                source: s,
                target: t,
                snapshot: snapshot(),
            },
            MoveMsg::Ack {
                m,
                source: s,
                target: t,
            },
            MoveMsg::AbortMove {
                m,
                client: c,
                source: s,
                target: t,
                toward: s,
            },
            MoveMsg::CovRequest {
                m,
                client: c,
                source: s,
                target: t,
            },
            MoveMsg::CovAccept {
                m,
                source: s,
                target: t,
            },
            MoveMsg::CovTransfer {
                m,
                client: c,
                source: s,
                target: t,
                profile: profile(),
                snapshot: snapshot(),
            },
            MoveMsg::CovDone {
                m,
                source: s,
                target: t,
            },
        ];
        for msg in &msgs {
            let env = Message::from(msg.clone());
            let bytes = encode_one(&env);
            assert_eq!(decode_one::<Message>(&bytes).expect("decode"), env);
        }
    }

    #[test]
    fn broker_death_round_trips() {
        let env = Message::BrokerDeath { dead: BrokerId(7) };
        let bytes = encode_one(&env);
        assert_eq!(decode_one::<Message>(&bytes).expect("decode"), env);
    }

    #[test]
    fn binary_is_denser_than_json_for_a_state_transfer() {
        let env = Message::from(MoveMsg::StateTransfer {
            m: MoveId(1),
            client: ClientId(4),
            source: BrokerId(0),
            target: BrokerId(2),
            snapshot: snapshot(),
        });
        let bytes = encode_one(&env);
        let json = serde_json::to_string(&env).unwrap();
        assert!(
            bytes.len() * 2 < json.len(),
            "binary {} bytes vs json {} bytes",
            bytes.len(),
            json.len()
        );
    }
}
