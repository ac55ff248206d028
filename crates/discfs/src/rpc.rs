//! The DisCFS auxiliary RPC program.
//!
//! Paper §5: *"We wrote a utility which allows a user to submit
//! credential assertions to the DisCFS daemon over RPC"* and *"we had
//! to add our own procedures that upon successful creation of a
//! file/directory return a credential with full access to the creator
//! of the file."* Both live in this side program, multiplexed on the
//! same secure connection as the NFS traffic.

use onc_rpc::{Decoder, Encoder, XdrError};

use nfsv2::{FHandle, Fattr, NfsStat};

/// Program number for the DisCFS control procedures (outside the
/// IANA-assigned range, like any site-local RPC program).
pub const DISCFS_PROGRAM: u32 = 395_555;
/// Program version.
pub const DISCFS_VERSION: u32 = 1;

/// Procedure numbers.
#[allow(missing_docs)]
pub mod proc_discfs {
    pub const NULL: u32 = 0;
    /// Submit a credential assertion: `string → u32 status`.
    pub const SUBMIT_CRED: u32 = 1;
    /// Create a file and receive its credential.
    pub(crate) const CREATE: u32 = 2;
    /// Create a directory and receive its credential.
    pub(crate) const MKDIR: u32 = 3;
    /// Number of credentials in this connection's session.
    pub(crate) const CRED_COUNT: u32 = 4;
    /// Revoke a key (administrators only).
    pub const REVOKE_KEY: u32 = 5;
    /// Revoke a credential by id (administrators only).
    pub(crate) const REVOKE_CRED: u32 = 6;
}

/// Status codes for the control procedures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiscfsRpcStatus {
    /// Success.
    Ok = 0,
    /// Credential failed to parse or verify.
    BadCredential = 1,
    /// Credential (or its issuer key) is revoked.
    Revoked = 2,
    /// Caller lacks permission for this procedure.
    Denied = 3,
    /// Underlying filesystem error (accompanied by an NfsStat).
    FsError = 4,
}

impl DiscfsRpcStatus {
    /// Decodes from a wire word.
    pub(crate) fn from_u32(v: u32) -> Result<DiscfsRpcStatus, XdrError> {
        Ok(match v {
            0 => DiscfsRpcStatus::Ok,
            1 => DiscfsRpcStatus::BadCredential,
            2 => DiscfsRpcStatus::Revoked,
            3 => DiscfsRpcStatus::Denied,
            4 => DiscfsRpcStatus::FsError,
            _ => return Err(XdrError::BadValue),
        })
    }
}

/// Result of the credential-returning CREATE/MKDIR procedures.
#[derive(Debug, Clone)]
pub struct CreateWithCredRes {
    /// The new file's handle.
    pub fh: FHandle,
    /// Its attributes.
    pub(crate) attr: Fattr,
    /// A signed credential granting the creator RWX on the new file.
    pub credential: String,
}

/// Encodes a CREATE/MKDIR result.
pub(crate) fn encode_create_res(result: &Result<CreateWithCredRes, NfsStat>) -> Vec<u8> {
    let mut e = Encoder::new();
    match result {
        Ok(res) => {
            e.put_u32(DiscfsRpcStatus::Ok as u32);
            e.put_opaque_fixed(&res.fh.0);
            res.attr.encode(&mut e);
            e.put_string(&res.credential);
        }
        Err(stat) => {
            e.put_u32(DiscfsRpcStatus::FsError as u32);
            e.put_u32(*stat as u32);
        }
    }
    e.finish()
}

/// Decodes a CREATE/MKDIR result.
///
/// # Errors
///
/// `Ok(Err(stat))` for server-reported filesystem errors; `Err` for
/// wire-format problems.
pub(crate) fn decode_create_res(
    data: &[u8],
) -> Result<Result<CreateWithCredRes, NfsStat>, XdrError> {
    let mut d = Decoder::new(data);
    match DiscfsRpcStatus::from_u32(d.get_u32()?)? {
        DiscfsRpcStatus::Ok => {
            let fh = FHandle(d.get_opaque_fixed(32)?.try_into().expect("32-byte handle"));
            let attr = Fattr::decode(&mut d)?;
            let credential = d.get_string()?;
            Ok(Ok(CreateWithCredRes {
                fh,
                attr,
                credential,
            }))
        }
        DiscfsRpcStatus::FsError => Ok(Err(NfsStat::from_u32(d.get_u32()?)?)),
        DiscfsRpcStatus::Denied => Ok(Err(NfsStat::Acces)),
        _ => Err(XdrError::BadValue),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfsv2::{FType, TimeVal};

    fn fattr() -> Fattr {
        Fattr {
            ftype: FType::Regular,
            mode: 0o100644,
            nlink: 1,
            uid: 0,
            gid: 0,
            size: 0,
            blocksize: 8192,
            rdev: 0,
            blocks: 0,
            fsid: 1,
            fileid: 9,
            atime: TimeVal::default(),
            mtime: TimeVal::default(),
            ctime: TimeVal::default(),
        }
    }

    #[test]
    fn create_res_round_trip_ok() {
        let res = CreateWithCredRes {
            fh: FHandle::pack(1, 9, 2),
            attr: fattr(),
            credential: "KeyNote-Version: 2\n...".to_string(),
        };
        let bytes = encode_create_res(&Ok(res.clone()));
        let decoded = decode_create_res(&bytes).unwrap().unwrap();
        assert_eq!(decoded.fh, res.fh);
        assert_eq!(decoded.attr, res.attr);
        assert_eq!(decoded.credential, res.credential);
    }

    #[test]
    fn create_res_round_trip_error() {
        let bytes = encode_create_res(&Err(NfsStat::Acces));
        assert_eq!(
            decode_create_res(&bytes).unwrap().unwrap_err(),
            NfsStat::Acces
        );
    }

    #[test]
    fn status_codes_round_trip() {
        for status in [
            DiscfsRpcStatus::Ok,
            DiscfsRpcStatus::BadCredential,
            DiscfsRpcStatus::Revoked,
            DiscfsRpcStatus::Denied,
            DiscfsRpcStatus::FsError,
        ] {
            assert_eq!(DiscfsRpcStatus::from_u32(status as u32).unwrap(), status);
        }
        assert!(DiscfsRpcStatus::from_u32(99).is_err());
    }
}
