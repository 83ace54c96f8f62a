//! A scripted peer for hand-played schedules such as the Figure 4a
//! counter-example.

use ratc_sim::rdma::RdmaToken;
use ratc_sim::{Actor, Context};
use ratc_types::ProcessId;

use crate::messages::RdmaMsg;

/// A test-controlled peer: records every message, RDMA delivery and RDMA
/// acknowledgement it receives, and never reacts. Used to play protocol roles
/// by hand in scripted schedules such as the Figure 4a counter-example.
#[derive(Debug, Default)]
pub struct ScriptedPeer {
    /// Messages received over the ordinary network.
    pub received: Vec<(ProcessId, RdmaMsg)>,
    /// Messages delivered out of local memory (RDMA).
    pub rdma_delivered: Vec<(ProcessId, RdmaMsg)>,
    /// Acknowledgement tokens received for our own RDMA writes.
    pub acks: Vec<RdmaToken>,
}

impl Actor<RdmaMsg> for ScriptedPeer {
    fn on_message(&mut self, from: ProcessId, msg: RdmaMsg, _ctx: &mut Context<'_, RdmaMsg>) {
        self.received.push((from, msg));
    }

    fn on_rdma_deliver(&mut self, from: ProcessId, msg: RdmaMsg, _ctx: &mut Context<'_, RdmaMsg>) {
        self.rdma_delivered.push((from, msg));
    }

    fn on_rdma_ack(&mut self, token: RdmaToken, _to: ProcessId, _ctx: &mut Context<'_, RdmaMsg>) {
        self.acks.push(token);
    }
}
