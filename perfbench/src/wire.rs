//! A raw binary-codec client: the benchmark reads each response frame as
//! bytes, so it can compare them with the reference encoding byte for byte
//! before decoding anything.

use std::io::{self, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use templar_api::binary::{self, WireCodec, HANDSHAKE_LEN};
use templar_api::{ApiError, RequestBody, ResponseBody};

/// Bytes of a response payload before its body: correlation id + status.
const RESPONSE_HEADER: usize = 9;
const STATUS_OK: u8 = 0;

/// Open a connection and negotiate the binary codec.
pub fn connect(addr: SocketAddr) -> io::Result<TcpStream> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.write_all(&binary::encode_hello(WireCodec::Binary))?;
    let mut ack = [0u8; HANDSHAKE_LEN];
    stream.read_exact(&mut ack)?;
    match binary::decode_ack(&ack) {
        Ok(WireCodec::Binary) => Ok(stream),
        other => Err(io::Error::other(format!("binary codec refused: {other:?}"))),
    }
}

/// Reads whole response frames off one connection.
pub struct FrameReader(BufReader<TcpStream>);

impl FrameReader {
    pub fn new(stream: TcpStream) -> FrameReader {
        FrameReader(BufReader::with_capacity(64 * 1024, stream))
    }

    /// The next response payload (everything after the length prefix).
    pub fn read(&mut self) -> io::Result<Vec<u8>> {
        let mut len = [0u8; 4];
        self.0.read_exact(&mut len)?;
        let len = u32::from_le_bytes(len) as usize;
        binary::check_frame_len(len, binary::MAX_FRAME_BYTES)
            .map_err(|e| io::Error::other(e.to_string()))?;
        let mut payload = vec![0u8; len];
        self.0.read_exact(&mut payload)?;
        Ok(payload)
    }
}

/// One closed-loop connection: send a request, wait for its response.
pub struct Client {
    writer: TcpStream,
    reader: FrameReader,
    next_id: u64,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let writer = connect(addr)?;
        let reader = FrameReader::new(writer.try_clone()?);
        Ok(Client {
            writer,
            reader,
            next_id: 1,
        })
    }

    /// Send one pre-encoded request body (see [`encode_body`]) and return
    /// the response payload.
    pub fn roundtrip(&mut self, encoded: &[u8]) -> io::Result<Vec<u8>> {
        let id = self.next_id;
        self.next_id += 1;
        self.writer.write_all(&frame(id, encoded))?;
        let payload = self.reader.read()?;
        if payload_id(&payload) != id {
            return Err(io::Error::other("response for another request"));
        }
        Ok(payload)
    }
}

/// A request body encoded once, without length prefix or id, so the load
/// loops only splice in the correlation id.
pub fn encode_body(body: &RequestBody) -> Vec<u8> {
    binary::encode_request_frame(0, body)[12..].to_vec()
}

/// A complete request frame around a pre-encoded body.
pub fn frame(id: u64, encoded_body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(12 + encoded_body.len());
    out.extend_from_slice(&((8 + encoded_body.len()) as u32).to_le_bytes());
    out.extend_from_slice(&id.to_le_bytes());
    out.extend_from_slice(encoded_body);
    out
}

/// The successful response body as the server must encode it.
pub fn expected_ok(body: &ResponseBody) -> Vec<u8> {
    binary::encode_response_frame(0, &Ok(body.clone()))[4 + RESPONSE_HEADER..].to_vec()
}

pub fn payload_id(payload: &[u8]) -> u64 {
    payload.get(..8).map_or(0, |b| {
        u64::from_le_bytes(b.try_into().expect("eight bytes"))
    })
}

/// How one response compares with what the request must produce.
#[derive(Debug)]
pub enum Verdict {
    Ok,
    /// Turned away by admission control (`Backpressure`).
    Shed,
    /// A typed error other than a shed.
    Failed(String),
    /// A success whose bytes differ from the reference.
    Mismatch,
}

/// Judge a response payload against the expected body bytes, or — where the
/// answer legitimately changes under the run (`expected == None`) — against
/// `check`, applied to the decoded body.
pub fn judge(
    payload: &[u8],
    expected: Option<&[u8]>,
    check: impl Fn(&ResponseBody) -> bool,
) -> Verdict {
    if payload.get(8) == Some(&STATUS_OK) {
        if let Some(expected) = expected {
            return if &payload[RESPONSE_HEADER..] == expected {
                Verdict::Ok
            } else {
                Verdict::Mismatch
            };
        }
    }
    match binary::decode_response_frame(payload) {
        Ok((_, Ok(body))) if check(&body) => Verdict::Ok,
        Ok((_, Ok(_))) => Verdict::Mismatch,
        Ok((_, Err(ApiError::Backpressure))) => Verdict::Shed,
        Ok((_, Err(e))) => Verdict::Failed(e.to_string()),
        Err(e) => Verdict::Failed(e.to_string()),
    }
}
