//! A probe of how fast the host is right now, for the one kind of work
//! the traffic does most: a loopback round trip between two threads of
//! one CPU.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Instant;

/// Median of `trips` round trips of one byte over loopback TCP between
/// the calling thread and an echo thread that runs on the caller's CPUs.
pub fn rtt_ns(trips: usize) -> u64 {
    let listener = TcpListener::bind("127.0.0.1:0").expect("probe listener binds");
    let addr = listener.local_addr().expect("probe listener address");
    std::thread::scope(|scope| {
        scope.spawn(move || {
            let (mut conn, _) = listener.accept().expect("probe accepts");
            conn.set_nodelay(true).expect("nodelay");
            let mut b = [0u8; 1];
            while conn.read_exact(&mut b).is_ok() {
                if conn.write_all(&b).is_err() {
                    break;
                }
            }
        });
        let mut conn = TcpStream::connect(addr).expect("probe connects");
        conn.set_nodelay(true).expect("nodelay");
        let mut b = [7u8; 1];
        let mut times: Vec<u64> = (0..trips)
            .map(|_| {
                let t = Instant::now();
                conn.write_all(&b).expect("probe writes");
                conn.read_exact(&mut b).expect("probe reads");
                t.elapsed().as_nanos() as u64
            })
            .collect();
        drop(conn);
        crate::stats::median_u64(&mut times)
    })
}
