#include "mem/fault.hpp"

#include <sstream>
#include <stdexcept>

namespace prt::mem {

FaultClass fault_class(FaultKind k) {
  switch (k) {
    case FaultKind::kSaf0:
    case FaultKind::kSaf1:
      return FaultClass::kSaf;
    case FaultKind::kTfUp:
    case FaultKind::kTfDown:
      return FaultClass::kTf;
    case FaultKind::kWdf:
      return FaultClass::kWdf;
    case FaultKind::kRdf:
    case FaultKind::kDrdf:
    case FaultKind::kIrf:
    case FaultKind::kSof:
      return FaultClass::kReadLogic;
    case FaultKind::kCfIn:
      return FaultClass::kCfIn;
    case FaultKind::kCfIdUp0:
    case FaultKind::kCfIdUp1:
    case FaultKind::kCfIdDown0:
    case FaultKind::kCfIdDown1:
      return FaultClass::kCfId;
    case FaultKind::kCfSt0:
    case FaultKind::kCfSt1:
      return FaultClass::kCfSt;
    case FaultKind::kBridgeAnd:
    case FaultKind::kBridgeOr:
      return FaultClass::kBridge;
    case FaultKind::kAfNoAccess:
    case FaultKind::kAfWrongAccess:
    case FaultKind::kAfMultiAccess:
      return FaultClass::kAf;
    case FaultKind::kNpsfStatic:
      return FaultClass::kNpsf;
    case FaultKind::kDrf:
      return FaultClass::kRetention;
  }
  return FaultClass::kSaf;  // unreachable
}

std::string to_string(FaultKind k) {
  switch (k) {
    case FaultKind::kSaf0: return "SAF0";
    case FaultKind::kSaf1: return "SAF1";
    case FaultKind::kTfUp: return "TF-up";
    case FaultKind::kTfDown: return "TF-down";
    case FaultKind::kWdf: return "WDF";
    case FaultKind::kRdf: return "RDF";
    case FaultKind::kDrdf: return "DRDF";
    case FaultKind::kIrf: return "IRF";
    case FaultKind::kSof: return "SOF";
    case FaultKind::kCfIn: return "CFin";
    case FaultKind::kCfIdUp0: return "CFid<up,0>";
    case FaultKind::kCfIdUp1: return "CFid<up,1>";
    case FaultKind::kCfIdDown0: return "CFid<down,0>";
    case FaultKind::kCfIdDown1: return "CFid<down,1>";
    case FaultKind::kCfSt0: return "CFst<0>";
    case FaultKind::kCfSt1: return "CFst<1>";
    case FaultKind::kBridgeAnd: return "BF-and";
    case FaultKind::kBridgeOr: return "BF-or";
    case FaultKind::kAfNoAccess: return "AF-none";
    case FaultKind::kAfWrongAccess: return "AF-wrong";
    case FaultKind::kAfMultiAccess: return "AF-multi";
    case FaultKind::kNpsfStatic: return "NPSF-static";
    case FaultKind::kDrf: return "DRF";
  }
  return "?";
}

std::string to_string(FaultClass c) {
  switch (c) {
    case FaultClass::kSaf: return "SAF";
    case FaultClass::kTf: return "TF";
    case FaultClass::kWdf: return "WDF";
    case FaultClass::kReadLogic: return "RDF/DRDF/IRF/SOF";
    case FaultClass::kCfIn: return "CFin";
    case FaultClass::kCfId: return "CFid";
    case FaultClass::kCfSt: return "CFst";
    case FaultClass::kBridge: return "Bridge";
    case FaultClass::kAf: return "AF";
    case FaultClass::kNpsf: return "NPSF";
    case FaultClass::kRetention: return "DRF";
  }
  return "?";
}

std::string Fault::describe() const {
  std::ostringstream os;
  os << to_string(kind) << " v=(" << victim.cell << ',' << victim.bit << ')';
  if (is_coupling(kind)) {
    os << " a=(" << aggressor.cell << ',' << aggressor.bit << ')';
  }
  if (kind == FaultKind::kCfSt0 || kind == FaultKind::kCfSt1) {
    os << " when=" << state;
  }
  if (is_address_fault(kind) && kind != FaultKind::kAfNoAccess) {
    os << " alias=" << alias;
  }
  if (kind == FaultKind::kNpsfStatic) {
    os << " pattern=0x" << std::hex << pattern << std::dec
       << " forced=" << state;
  }
  if (kind == FaultKind::kDrf) {
    os << " decays_to=" << state << " after=" << delay;
  }
  return os.str();
}

void validate_fault(const Fault& fault, Addr cells, unsigned width,
                    std::string_view who) {
  auto reject = [&](const char* reason) {
    throw std::invalid_argument(std::string(who) + ": " + reason + ": " +
                                fault.describe());
  };
  if (fault.victim.cell >= cells || fault.victim.bit >= width) {
    reject("victim out of range");
  }
  if (is_coupling(fault.kind)) {
    if (fault.aggressor.cell >= cells || fault.aggressor.bit >= width) {
      reject("aggressor out of range");
    }
    if (fault.aggressor == fault.victim) {
      reject("aggressor must differ from victim");
    }
  }
  if (is_address_fault(fault.kind) && fault.kind != FaultKind::kAfNoAccess &&
      fault.alias >= cells) {
    reject("alias out of range");
  }
  if (fault.kind == FaultKind::kDrf && fault.delay == 0) {
    reject("retention fault needs delay > 0");
  }
}

}  // namespace prt::mem
