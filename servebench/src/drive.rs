//! The load: closed-loop clients that time every request.

use eel_serve::{Client, Request, Response};
use std::collections::HashMap;
use std::io;
use std::time::Instant;

/// Sends `requests[order[k]]` for every `k` over one pipelined session,
/// keeping up to `window` requests in flight, and hands each reply to
/// `on_reply(k, response)` as it arrives. A request's latency runs from
/// its first submission to its reply.
///
/// # Errors
///
/// Session I/O failures.
pub fn session(
    client: &Client,
    requests: &[Request],
    order: &[usize],
    window: u32,
    mut on_reply: impl FnMut(usize, Response),
) -> io::Result<Vec<f64>> {
    let mut session = client.open_session(window)?;
    let window = (session.window() as usize).max(1);
    let mut latencies_us = vec![0.0; order.len()];
    let mut sent_at: Vec<Option<Instant>> = vec![None; order.len()];
    let mut in_flight: HashMap<u64, usize> = HashMap::with_capacity(window);
    let (mut next, mut done) = (0, 0);
    while done < order.len() {
        while next < order.len() && in_flight.len() < window {
            sent_at[next] = Some(Instant::now());
            in_flight.insert(session.submit(&requests[order[next]])?, next);
            next += 1;
        }
        let (id, response) = session.recv()?;
        let now = Instant::now();
        let k = in_flight
            .remove(&id)
            .ok_or_else(|| io::Error::other(format!("reply for unknown id {id}")))?;
        if matches!(response, Response::Busy) {
            in_flight.insert(session.submit(&requests[order[k]])?, k);
            continue;
        }
        let sent = sent_at[k].expect("submitted before answered");
        latencies_us[k] = (now - sent).as_secs_f64() * 1e6;
        on_reply(k, response);
        done += 1;
    }
    session.goodbye()?;
    Ok(latencies_us)
}

/// Sends `requests[order[k]]` one at a time, each on its own protocol
/// v1 connection (a BUSY reply is retried with the client's backoff),
/// handing each reply to `on_reply(k, response)`.
///
/// # Errors
///
/// Connection or I/O failures.
pub fn oneshot(
    client: &Client,
    requests: &[Request],
    order: &[usize],
    mut on_reply: impl FnMut(usize, Response),
) -> io::Result<Vec<f64>> {
    let mut latencies_us = Vec::with_capacity(order.len());
    for (k, &o) in order.iter().enumerate() {
        let sent = Instant::now();
        let response = client.request_with_retry(&requests[o], 100)?;
        latencies_us.push(sent.elapsed().as_secs_f64() * 1e6);
        on_reply(k, response);
    }
    Ok(latencies_us)
}
