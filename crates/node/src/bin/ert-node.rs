//! `ert-node` — run one live wire-protocol node over real UDP.
//!
//! Usage:
//!   ert-node --id <ring-id> --bind <addr:port> --bits <bits> \
//!            [--peer <id>=<addr:port>]... [--bootstrap <id>] [--seed <u64>]
//!
//! The node joins through `--bootstrap` (when given), then services
//! frames forever: lookups are forwarded with the two-choice elastic
//! policy, stabilize rounds run every 2 s of real time, and indegree
//! adaptation every `adaptation_period`. All protocol logic is the
//! same `ErtNode` the deterministic driver runs, and its frames are
//! built by the same codec glue as the driver's in-memory switch — only
//! the transport and the clock differ here.

#![forbid(unsafe_code)]

use std::net::UdpSocket;
use std::process::ExitCode;

use ert_minidht::{MiniDhtConfig, MiniProtocol};
use ert_node::udp::{Peer, UdpTransport};
use ert_node::{TimerKind, Transport, WireNode};
use ert_sim::{SimDuration, SimTime};

struct Args {
    id: u64,
    bind: String,
    bits: u8,
    peers: Vec<Peer>,
    bootstrap: Option<u64>,
    seed: u64,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut id = None;
    let mut bind = None;
    let mut bits = 16u8;
    let mut peers = Vec::new();
    let mut bootstrap = None;
    let mut seed = 0u64;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} expects a value"))
        };
        match flag.as_str() {
            "--id" => id = Some(value("--id")?.parse::<u64>().map_err(|e| e.to_string())?),
            "--bind" => bind = Some(value("--bind")?),
            "--bits" => bits = value("--bits")?.parse::<u8>().map_err(|e| e.to_string())?,
            "--seed" => seed = value("--seed")?.parse::<u64>().map_err(|e| e.to_string())?,
            "--bootstrap" => {
                bootstrap = Some(
                    value("--bootstrap")?
                        .parse::<u64>()
                        .map_err(|e| e.to_string())?,
                );
            }
            "--peer" => {
                let spec = value("--peer")?;
                let (pid, addr) = spec
                    .split_once('=')
                    .ok_or_else(|| format!("--peer expects <id>=<addr:port>, got `{spec}`"))?;
                peers.push(Peer {
                    id: pid.parse::<u64>().map_err(|e| e.to_string())?,
                    addr: addr.parse().map_err(|e| format!("{addr}: {e}"))?,
                });
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        id: id.ok_or("--id is required")?,
        bind: bind.ok_or("--bind is required")?,
        bits,
        peers,
        bootstrap,
        seed,
    })
}

fn run(args: &Args) -> Result<(), String> {
    let socket = UdpSocket::bind(&args.bind).map_err(|e| format!("bind {}: {e}", args.bind))?;
    let mut transport = UdpTransport::new(socket, args.peers.clone()).map_err(|e| e.to_string())?;

    let cfg = MiniDhtConfig::defaults(args.bits, args.seed);
    let mut view: Vec<u64> = args.peers.iter().map(|p| p.id).collect();
    view.push(args.id);
    view.sort_unstable();
    view.dedup();
    let ring = ert_overlay::ChordSpace::new(args.bits).ring_size();
    if let Some(id) = view.last().filter(|&&id| id >= ring) {
        return Err(format!("id {id} is off the {ring}-id ring"));
    }
    let mut node = WireNode::new(
        args.id,
        args.bits,
        &view,
        1.0,
        8,
        &cfg,
        MiniProtocol::ElasticErt,
    );

    // Wall-clock reads are confined to this binary: the transport and
    // node only ever see the elapsed SimTime fed in below.
    #[expect(
        clippy::disallowed_methods,
        reason = "D1: the UDP driver's clock, not sim code"
    )]
    let epoch = std::time::Instant::now();
    let elapsed = move || SimTime::ZERO + SimDuration::from_secs_f64(epoch.elapsed().as_secs_f64());

    if let Some(boot) = args.bootstrap {
        transport.advance(elapsed());
        node.join_via(&mut transport, boot)
            .map_err(|e| format!("join via {boot}: {e}"))?;
        eprintln!("[{id}] joined via {boot}", id = args.id);
    }
    transport.advance(elapsed());
    node.build_links(&mut transport)
        .map_err(|e| format!("build links: {e}"))?;
    eprintln!(
        "[{id}] serving: view={n} indegree={ind}",
        id = args.id,
        n = node.members_view().len(),
        ind = node.indegree()
    );

    transport.timer(cfg.ert.adaptation_period, TimerKind::AdaptTick);
    let stabilize_every = SimDuration::from_secs_f64(2.0);
    let mut next_stabilize = elapsed() + stabilize_every;

    loop {
        transport.advance(elapsed());
        for kind in transport.due_timers() {
            if let TimerKind::AdaptTick = kind {
                // Keep the adaptation cadence alive on the real clock.
                transport.timer(cfg.ert.adaptation_period, TimerKind::AdaptTick);
            }
            node.on_timer(&mut transport, kind)
                .map_err(|e| format!("timer: {e}"))?;
        }
        if transport.now() >= next_stabilize {
            next_stabilize = transport.now() + stabilize_every;
            if let Err(e) = node.stabilize_once(&mut transport) {
                eprintln!("[{id}] stabilize: {e}", id = args.id);
            }
        }
        if let Some((from, frame)) = transport.poll_frame() {
            transport.advance(elapsed());
            // One socket carries both lanes: request-type messages are
            // answered in place, datagram-lane messages go through the
            // node's frame handler.
            let is_request = matches!(
                ert_node::decode(&frame),
                Ok(ert_node::Message::Join { .. }
                    | ert_node::Message::Stabilize { .. }
                    | ert_node::Message::ProbeLoad { .. }
                    | ert_node::Message::AdaptIndegree { .. })
            );
            let outcome = if is_request {
                node.on_request(&frame)
                    .and_then(|reply| transport.reply_to(from, &reply).map_err(Into::into))
            } else {
                node.on_frame(&mut transport, &frame)
            };
            if let Err(e) = outcome {
                eprintln!("[{id}] frame: {e}", id = args.id);
            }
        }
    }
}

fn main() -> ExitCode {
    match parse_args() {
        Ok(args) => match run(&args) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("ert-node: {e}");
                ExitCode::FAILURE
            }
        },
        Err(e) => {
            eprintln!("ert-node: {e}\nusage: ert-node --id <u64> --bind <addr:port> [--bits B] [--peer id=addr]... [--bootstrap id] [--seed S]");
            ExitCode::FAILURE
        }
    }
}
